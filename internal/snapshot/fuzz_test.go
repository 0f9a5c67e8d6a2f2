package snapshot_test

import (
	"errors"
	"testing"

	"repro/internal/fuzzcorpus"
	"repro/internal/shard"
	"repro/internal/snapshot"
)

// FuzzUnmarshalSnapshot hardens the container decoder and the full
// restore path behind it: arbitrary bytes must never panic and must
// never trigger an allocation not bounded by the input length (hostile
// shard counts, frame lengths, key counts, key offsets and bitset
// lengths are all rejected against len(data) before any make).
// Accepted containers must restore into a set whose queries do not
// panic; an Add it accepts answers true, and an Add it refuses as
// read-only leaves the epoch where it was.
func FuzzUnmarshalSnapshot(f *testing.F) {
	seeds := fuzzSnapshotSeeds(f)
	for _, name := range fuzzcorpus.Names(seeds) {
		f.Add(seeds[name])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := snapshot.Unmarshal(data)
		if err != nil {
			return // rejected, fine
		}
		restored, err := shard.Restore(s)
		if err != nil {
			return // container fine, payloads not a valid filter set
		}
		// Whatever survived both validators must serve without panicking.
		restored.Contains([]byte("probe"))
		restored.Contains(nil)
		key := []byte("post-restore-add")
		epoch := restored.Epoch()
		switch err := restored.Add(key); {
		case err == nil:
			if !restored.Contains(key) {
				t.Fatal("restored set lost an added key")
			}
		case errors.Is(err, shard.ErrReadOnly):
			if restored.Epoch() != epoch {
				t.Fatalf("refused Add moved the epoch from %d to %d", epoch, restored.Epoch())
			}
		default:
			t.Fatalf("Add: %v", err)
		}
		restored.WaitRebuilds()
	})
}
