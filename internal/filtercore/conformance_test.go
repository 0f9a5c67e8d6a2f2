package filtercore_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/bloom"
	"repro/internal/filtercore"
	"repro/internal/habf"
	"repro/internal/hashes"
)

// conformanceKeys builds a deterministic key fixture: n members, n
// weighted non-members.
func conformanceKeys(n int) (pos [][]byte, neg []habf.WeightedKey, negKeys [][]byte) {
	pos = make([][]byte, n)
	neg = make([]habf.WeightedKey, n)
	negKeys = make([][]byte, n)
	for i := 0; i < n; i++ {
		pos[i] = []byte(fmt.Sprintf("conf-member-%06d", i))
		negKeys[i] = []byte(fmt.Sprintf("conf-absent-%06d", i))
		neg[i] = habf.WeightedKey{Key: negKeys[i], Cost: float64(i%9 + 1)}
	}
	return pos, neg, negKeys
}

// backendsUnderTest returns the factories to exercise: all registered
// ones, or the single backend named by FILTERCORE_BACKEND (the CI
// matrix sets it so each backend gets an isolated, labelled run).
func backendsUnderTest(t *testing.T) []*filtercore.Factory {
	if only := os.Getenv("FILTERCORE_BACKEND"); only != "" {
		f, err := filtercore.ByName(only)
		if err != nil {
			t.Fatalf("FILTERCORE_BACKEND: %v", err)
		}
		return []*filtercore.Factory{f}
	}
	var out []*filtercore.Factory
	for _, name := range filtercore.Names() {
		f, err := filtercore.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

func buildBackend(t *testing.T, f *filtercore.Factory, pos [][]byte, neg []habf.WeightedKey) filtercore.Backend {
	t.Helper()
	b, err := f.Build(pos, neg, filtercore.BuildConfig{
		TotalBits: uint64(12 * len(pos)),
		Params:    habf.Params{Seed: 7},
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return b
}

// preparedBatch answers probes through the backend's batch probe, handed
// the base hashes the shard layer routes with.
func preparedBatch(b filtercore.Backend, probes [][]byte) []bool {
	hv := make([]uint64, len(probes))
	for i, key := range probes {
		hv[i] = hashes.Base(key)
	}
	dst := make([]bool, len(probes))
	b.ContainsBatchInto(dst, probes, hv)
	return dst
}

// TestBackendConformance is the table-driven contract every registered
// backend must honor: zero false negatives on members, batch/per-key
// parity, marshal round-trips, a coherent
// static/mutable Add contract, and truthful self-description.
func TestBackendConformance(t *testing.T) {
	pos, neg, negKeys := conformanceKeys(3000)
	for _, f := range backendsUnderTest(t) {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			b := buildBackend(t, f, pos, neg)

			if b.Name() == "" || b.SizeBits() == 0 {
				t.Errorf("backend does not describe itself: name %q, size %d", b.Name(), b.SizeBits())
			}
			if got := f.InnerName(habf.Params{}); got == "" {
				t.Error("empty InnerName")
			}

			// Zero false negatives, ever.
			for _, key := range pos {
				if !b.Contains(key) {
					t.Fatalf("false negative for %q", key)
				}
			}

			// The batch probe must agree with per-key Contains on a mixed
			// probe stream (members, known negatives, never-seen keys).
			probes := append(append([][]byte{}, pos[:500]...), negKeys[:500]...)
			for i := 0; i < 200; i++ {
				probes = append(probes, []byte(fmt.Sprintf("conf-novel-%06d", i)))
			}
			batch := preparedBatch(b, probes)
			for i, key := range probes {
				if want := b.Contains(key); batch[i] != want {
					t.Fatalf("probe %d (%q): batch=%v per-key=%v", i, key, batch[i], want)
				}
			}

			// Marshal → unmarshal round trip, identical answers.
			wire, err := b.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			got, err := f.Unmarshal(wire)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if got.Name() != b.Name() {
				t.Errorf("decoded name %q != %q", got.Name(), b.Name())
			}
			if got.SizeBits() != b.SizeBits() {
				t.Errorf("decoded size %d != %d", got.SizeBits(), b.SizeBits())
			}
			for i, key := range probes {
				if got.Contains(key) != batch[i] {
					t.Fatalf("decoded filter disagrees on probe %d (%q)", i, key)
				}
			}

			// The wire payload's align offset must be inside the payload.
			if off := b.WireAlignOffset(); off < 0 || off >= len(wire) {
				t.Errorf("WireAlignOffset %d outside payload of %d bytes", off, len(wire))
			}

			// Add contract: static backends refuse with ErrStaticBackend
			// and stay unchanged; mutable backends absorb and answer
			// immediately.
			fresh := []byte("conf-added-key")
			err = b.Add(fresh)
			if f.Static {
				if err != filtercore.ErrStaticBackend {
					t.Fatalf("static backend Add returned %v, want ErrStaticBackend", err)
				}
			} else {
				if err != nil {
					t.Fatalf("mutable backend Add: %v", err)
				}
				if !b.Contains(fresh) {
					t.Fatal("added key not queryable")
				}
				// The decoded-then-mutated filter must also absorb Adds
				// without corrupting the borrow source (copy-on-write).
				dec, err := f.Unmarshal(wire)
				if err != nil {
					t.Fatal(err)
				}
				wireCopy := append([]byte(nil), wire...)
				if err := dec.Add(fresh); err != nil {
					t.Fatalf("Add on borrowed filter: %v", err)
				}
				if !dec.Contains(fresh) {
					t.Fatal("borrowed filter lost added key")
				}
				if string(wire) != string(wireCopy) {
					t.Fatal("Add on borrowed filter mutated the wire buffer")
				}
			}
		})
	}
}

// TestBackendConcurrentReaders hammers concurrent Contains/ContainsBatchInto
// on one backend instance — the read-side contract the shard layer
// depends on. Run with -race (CI does).
func TestBackendConcurrentReaders(t *testing.T) {
	pos, neg, negKeys := conformanceKeys(2000)
	for _, f := range backendsUnderTest(t) {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			b := buildBackend(t, f, pos, neg)
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < 3000; i++ {
						key := pos[(i*13+r)%len(pos)]
						if !b.Contains(key) {
							t.Errorf("false negative for %q under concurrent reads", key)
							return
						}
						b.Contains(negKeys[(i*7+r)%len(negKeys)])
					}
					preparedBatch(b, pos[:256])
				}(r)
			}
			wg.Wait()
		})
	}
}

// TestRegistryRejectsUnknown pins the loud-failure contract of both
// lookup paths.
func TestRegistryRejectsUnknown(t *testing.T) {
	if _, err := filtercore.ByName("no-such-backend"); err == nil {
		t.Error("ByName accepted an unknown backend")
	}
	if _, err := filtercore.ByKind(filtercore.Kind(0xEE)); err == nil {
		t.Error("ByKind accepted an unknown kind")
	}
	if _, err := filtercore.ByName(""); err != nil {
		t.Errorf("empty name should resolve the default backend: %v", err)
	}
}

// TestBloomRejectsUnservedStrategies: the bloom backend serves only the
// seeded64 derivation, the one its batch probe computes from the base
// hash. A BLMF frame built with the corpus or split128 derivation must be
// refused by the decoder rather than answered with false negatives.
func TestBloomRejectsUnservedStrategies(t *testing.T) {
	f, err := filtercore.ByName("bloom")
	if err != nil {
		t.Fatal(err)
	}
	pos, _, _ := conformanceKeys(500)
	for _, strategy := range []bloom.Strategy{bloom.StrategyCorpus, bloom.StrategySplit128} {
		bf, err := bloom.NewWithKeys(pos, 10, strategy)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := bf.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Unmarshal(wire); err == nil {
			t.Errorf("%s: decoder accepted the frame", strategy)
		}
	}
}
