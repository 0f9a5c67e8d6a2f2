//go:build race

package habf

// raceEnabled reports whether this test binary carries the race
// detector, whose instrumentation allocates on its own — alloc-count
// assertions are skipped under -race and enforced by the plain run.
const raceEnabled = true
