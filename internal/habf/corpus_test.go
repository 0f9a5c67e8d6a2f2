package habf

import (
	"os"
	"testing"

	"repro/internal/fuzzcorpus"
)

// filterCorpusDir is where the committed FuzzUnmarshalFilter seeds live;
// `go test -fuzz` picks them up automatically.
const filterCorpusDir = "testdata/fuzz/FuzzUnmarshalFilter"

// TestFilterSeedCorpus keeps the committed seed corpus honest: every
// file must decode, every generated hostile input must be represented,
// and every committed seed must satisfy the fuzz target's property
// (no panic; batch and per-key probes agree; accepted payloads
// re-marshal). Regenerate the files with
//
//	UPDATE_FUZZ_CORPUS=1 go test -run TestFilterSeedCorpus ./internal/habf
func TestFilterSeedCorpus(t *testing.T) {
	seeds := fuzzFilterSeeds(t)
	if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
		if err := fuzzcorpus.WriteDir(filterCorpusDir, seeds); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d seeds to %s", len(seeds), filterCorpusDir)
	}
	committed, err := fuzzcorpus.ReadDir(filterCorpusDir)
	if err != nil {
		t.Fatalf("reading corpus (regenerate with UPDATE_FUZZ_CORPUS=1): %v", err)
	}
	for _, name := range fuzzcorpus.Names(seeds) {
		if _, ok := committed[name]; !ok {
			t.Errorf("seed %q not committed (regenerate with UPDATE_FUZZ_CORPUS=1)", name)
		}
	}
	members := genKeys(8, "fz")
	for _, name := range fuzzcorpus.Names(committed) {
		data := committed[name]
		// The fuzz target's core property, applied to each seed.
		g, err := UnmarshalFilter(data)
		if err != nil {
			continue
		}
		g.Contains([]byte("probe"))
		g.Contains(nil)
		checkBatchParity(t, g, batchAround(data[:min(len(data), 16)], members))
		if _, err := g.MarshalBinary(); err != nil {
			t.Errorf("seed %q: accepted filter failed to re-marshal: %v", name, err)
		}
	}
	// The valid seed must actually be accepted, or the corpus has gone
	// stale against the wire format.
	if data, ok := committed["valid-filter"]; ok {
		if _, err := UnmarshalFilter(data); err != nil {
			t.Errorf("committed valid-filter seed rejected: %v (regenerate with UPDATE_FUZZ_CORPUS=1)", err)
		}
	}
}
