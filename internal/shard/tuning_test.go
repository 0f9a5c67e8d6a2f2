package shard

import (
	"testing"

	"repro/internal/filtercore"
)

// shardTunings is one representative non-default knob set per backend,
// exercised through the full build → snapshot → restore cycle.
var shardTunings = map[string]string{
	"habf":  "k=4,cellbits=5",
	"bloom": "k=8",
	"xor":   "width=9",
	"wbf":   "cache=0.2,maxk=12",
	"phbf":  "groups=128,candidates=16",
	"lbf":   "epochs=3,seed=7",
	"slbf":  "split=0.25",
	"adabf": "groups=8",
}

// TestBackendTuningRoundTripsThroughSnapshot pins the durability
// contract of tuning knobs: a tuned set reports its canonical knob set,
// persists it in the snapshot's tuning frame, and a restore reports the
// identical string — while a default-tuned set writes no frame at all,
// keeping its containers byte-identical to pre-tuning ones.
func TestBackendTuningRoundTripsThroughSnapshot(t *testing.T) {
	for _, backend := range backendsUnderTest() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			input, ok := shardTunings[backend]
			if !ok {
				t.Fatalf("no shardTunings entry for backend %q — add one", backend)
			}
			f, err := filtercore.ByName(backend)
			if err != nil {
				t.Fatal(err)
			}
			canon, err := f.ParseTuning(input)
			if err != nil {
				t.Fatal(err)
			}
			want := canon.String()
			if want == f.DefaultTuning().String() {
				t.Fatalf("shardTunings[%q] = %q is the default — pick non-default knobs", backend, input)
			}

			s, pos, _ := newSet(t, 1200, Config{Shards: 2, Backend: backend, Tuning: input})
			if got := s.Tuning(); got != want {
				t.Fatalf("Tuning() = %q, want %q", got, want)
			}
			snap := takeSnapshot(t, s, true)
			if snap.Meta.Tuning != want {
				t.Fatalf("snapshot Meta.Tuning = %q, want %q", snap.Meta.Tuning, want)
			}
			g := snapshotRoundtrip(t, s)
			if got := g.Tuning(); got != want {
				t.Fatalf("restored Tuning() = %q, want %q", got, want)
			}
			for _, key := range pos {
				if !g.Contains(key) {
					t.Fatalf("tuned restored set lost %q", key)
				}
			}

			// Default tuning: reported in full, but never persisted.
			d, _, _ := newSet(t, 400, Config{Shards: 2, Backend: backend})
			if got := d.Tuning(); got != f.DefaultTuning().String() {
				t.Fatalf("default Tuning() = %q, want %q", got, f.DefaultTuning().String())
			}
			dsnap := takeSnapshot(t, d, true)
			if dsnap.Meta.Tuning != "" {
				t.Fatalf("default-tuned set persisted tuning frame %q", dsnap.Meta.Tuning)
			}
		})
	}
}

// TestRestoreRejectsBadTuning: a snapshot whose tuning frame names an
// unknown knob, carries an out-of-bounds value, or is not in canonical
// form must fail Restore loudly — silently dropping knobs would make a
// restored filter differ from what its stats claim.
func TestRestoreRejectsBadTuning(t *testing.T) {
	requireBackend(t, "bloom")
	s, _, _ := newSet(t, 800, Config{Shards: 2, Backend: "bloom"})
	for _, tc := range []struct{ name, tuning string }{
		{"unknown knob", "bogus=1"},
		{"out of bounds", "k=999"},
		{"malformed", "k"},
		{"non-canonical value", "k=08"},
	} {
		snap := takeSnapshot(t, s, true)
		snap.Meta.Tuning = tc.tuning
		if _, err := Restore(snap); err == nil {
			t.Errorf("%s: Restore accepted tuning %q", tc.name, tc.tuning)
		}
	}
}

// TestTuningRejectedAtBuild: New must reject bad knob sets before doing
// any work, with the backend named in the error.
func TestTuningRejectedAtBuild(t *testing.T) {
	requireBackend(t, "bloom")
	pos, neg, _ := fixture(100)
	for _, tuning := range []string{"bogus=1", "k=999", "strategy=md5", "k=8,k=8"} {
		if _, err := New(pos, neg, Config{TotalBits: 1200, Backend: "bloom", Tuning: tuning}); err == nil {
			t.Errorf("New accepted tuning %q", tuning)
		}
	}
}
