package filtercore_test

import (
	"testing"

	"repro/internal/filtercore"
	"repro/internal/habf"
	"repro/internal/hashes"
)

// FuzzBackendUnmarshal hardens every registered backend's decoder
// directly, not only through the snapshot container's framing. The first
// argument picks the backend (an index into filtercore.Names, modulo its
// length), the second is the payload. A payload that decodes must answer
// Contains and the batch probe without panicking and must re-marshal
// without error. The seeds are each backend's
// MarshalBinary of a small build.
func FuzzBackendUnmarshal(f *testing.F) {
	names := filtercore.Names()
	pos, neg, _ := conformanceKeys(64)
	for i, name := range names {
		fac, err := filtercore.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		b, err := fac.Build(pos, neg, filtercore.BuildConfig{
			TotalBits: uint64(12 * len(pos)),
			Params:    habf.Params{Seed: 7},
		})
		if err != nil {
			f.Fatalf("%s: build: %v", name, err)
		}
		data, err := b.MarshalBinary()
		if err != nil {
			f.Fatalf("%s: marshal: %v", name, err)
		}
		f.Add(uint8(i), data)
	}

	probes := [][]byte{nil, []byte("probe"), pos[0], neg[0].Key, make([]byte, 100)}
	probeHashes := make([]uint64, len(probes))
	for i, key := range probes {
		probeHashes[i] = hashes.Base(key)
	}
	dst := make([]bool, len(probes))

	f.Fuzz(func(t *testing.T, idx uint8, data []byte) {
		fac, err := filtercore.ByName(names[int(idx)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		b, err := fac.Unmarshal(data)
		if err != nil {
			return // rejected, fine
		}
		for _, key := range probes {
			b.Contains(key)
		}
		b.ContainsBatchInto(dst, probes, probeHashes)
		if _, err := b.MarshalBinary(); err != nil {
			t.Fatalf("%s: decoded payload does not re-marshal: %v", fac.Name, err)
		}
	})
}
