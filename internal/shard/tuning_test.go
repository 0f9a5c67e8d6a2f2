package shard

import (
	"fmt"
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
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
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
			dsnap, err := d.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
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
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
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

// TestRestoredStaticBackendAbsorbsPendingIntoSidecar pins the absorb
// path that bounds a restored static shard's pending growth: once
// post-restore Adds pass the absorb knob's threshold, they are folded
// into a mutable bloom sidecar in the background (an absorb, not a
// rebuild), the pending buffer empties, and every acked key keeps
// answering — including across a further snapshot → restore cycle,
// which absorbs synchronously at load.
func TestRestoredStaticBackendAbsorbsPendingIntoSidecar(t *testing.T) {
	requireBackend(t, "xor")
	s, pos, _ := newSet(t, 800, Config{Shards: 2, Backend: "xor", Tuning: "absorb=64"})
	gen1 := snapshotRoundtrip(t, s)

	var fresh [][]byte
	for i := 0; i < 300; i++ {
		k := []byte(fmt.Sprintf("late-absorb-%06d", i))
		fresh = append(fresh, k)
		gen1.Add(k)
	}
	gen1.WaitRebuilds()
	st := gen1.Stats()
	if st.Absorbs == 0 {
		t.Fatalf("no absorbs after 300 adds at absorb=64: %+v", st)
	}
	if st.Rebuilds != 0 {
		t.Fatalf("restored static set ran %d drift rebuilds (absorbs must not count as rebuilds)", st.Rebuilds)
	}
	sidecars := 0
	for _, info := range gen1.ShardInfos() {
		if info.Sidecar {
			sidecars++
		}
	}
	if sidecars == 0 {
		t.Fatal("no shard reports a sidecar after absorbing")
	}
	for _, key := range append(append([][]byte{}, pos...), fresh...) {
		if !gen1.Contains(key) {
			t.Fatalf("false negative for %q after absorb", key)
		}
	}

	// The sidecar is never serialized; the snapshot re-buffers the full
	// positive set of sidecar shards, and the restore — seeing pending
	// past the threshold — absorbs synchronously before serving.
	gen2 := snapshotRoundtrip(t, gen1)
	st2 := gen2.Stats()
	if st2.Pending != 0 {
		t.Fatalf("restore left %d keys pending past the absorb threshold", st2.Pending)
	}
	if st2.Absorbs == 0 {
		t.Fatal("restore did not absorb the oversized pending buffer")
	}
	for _, key := range append(append([][]byte{}, pos...), fresh...) {
		if !gen2.Contains(key) {
			t.Fatalf("generation 2 lost %q", key)
		}
	}
}

// TestAbsorbDisabledKeepsPending: absorb=0 switches the sidecar off,
// restoring the pre-absorb behavior where pending grows unboundedly.
func TestAbsorbDisabledKeepsPending(t *testing.T) {
	requireBackend(t, "xor")
	s, _, _ := newSet(t, 600, Config{Shards: 2, Backend: "xor", Tuning: "absorb=0"})
	g := snapshotRoundtrip(t, s)
	// A fresh key that happens to be a false positive of the static
	// filter is served by the filter and never buffered, so the expected
	// pending count is the adds the filter did not already claim.
	want := 0
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("no-absorb-%06d", i))
		if !g.Contains(key) {
			want++
		}
		g.Add(key)
	}
	g.WaitRebuilds()
	st := g.Stats()
	if st.Absorbs != 0 {
		t.Fatalf("absorb=0 still absorbed %d times", st.Absorbs)
	}
	if want < 190 {
		t.Fatalf("only %d of 200 fresh keys missed the filter — FP rate implausibly high", want)
	}
	if st.Pending != uint64(want) {
		t.Fatalf("pending = %d, want %d with absorbs disabled", st.Pending, want)
	}
}
