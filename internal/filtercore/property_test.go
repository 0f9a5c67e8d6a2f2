package filtercore_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/filtercore"
	"repro/internal/habf"
)

// TestBackendProperties is the randomized cross-backend harness: where
// the conformance suite checks one deterministic fixture, this one
// draws random key sets, key lengths, cost distributions and bit
// budgets and asserts the properties that must hold for *every* input
// on *every* registered backend:
//
//   - zero false negatives over the full positive set
//   - Contains/ContainsBatchInto parity on a shuffled member/negative/novel
//     probe mix, with the base hashes the shard layer routes with
//   - marshal → unmarshal(borrow) → re-marshal byte-identity (and the
//     same through the owning decoder), so wire formats are canonical
//     and snapshots of restored sets reproduce their source bytes
//   - the static-vs-mutable Add contract: Static factories refuse with
//     ErrStaticBackend and their wire bytes stay frozen; mutable ones
//     absorb and answer immediately
//
// The generator is seeded, so a failure reproduces; bump trials when
// hunting, keep it small for CI wall-clock.
func TestBackendProperties(t *testing.T) {
	const trials = 4
	rng := rand.New(rand.NewSource(0x5EEDC0DE))
	for trial := 0; trial < trials; trial++ {
		n := 400 + rng.Intn(2200)
		bitsPerKey := 8 + rng.Intn(9) // 8..16
		pos := make([][]byte, n)
		neg := make([]habf.WeightedKey, n)
		negKeys := make([][]byte, n)
		for i := 0; i < n; i++ {
			// Random lengths and random bytes; the index prefix keeps keys
			// unique without constraining the tail.
			pos[i] = randomKey(rng, fmt.Sprintf("p%05d-", i))
			negKeys[i] = randomKey(rng, fmt.Sprintf("n%05d-", i))
			neg[i] = habf.WeightedKey{Key: negKeys[i], Cost: 1 + rng.Float64()*float64(rng.Intn(50)+1)}
		}
		probes := make([][]byte, 0, 900)
		for i := 0; i < 300; i++ {
			probes = append(probes, pos[rng.Intn(n)], negKeys[rng.Intn(n)],
				randomKey(rng, fmt.Sprintf("x%05d-", i)))
		}
		rng.Shuffle(len(probes), func(a, b int) { probes[a], probes[b] = probes[b], probes[a] })

		for _, f := range backendsUnderTest(t) {
			f := f
			t.Run(fmt.Sprintf("trial%d/%s", trial, f.Name), func(t *testing.T) {
				b, err := f.Build(pos, neg, filtercore.BuildConfig{
					TotalBits: uint64(bitsPerKey * n),
					Params:    habf.Params{Seed: int64(trial + 1)},
				})
				if err != nil {
					t.Fatalf("build (n=%d, bpk=%d): %v", n, bitsPerKey, err)
				}

				for _, key := range pos {
					if !b.Contains(key) {
						t.Fatalf("false negative for %q (n=%d, bpk=%d)", key, n, bitsPerKey)
					}
				}

				batch := preparedBatch(b, probes)
				for i, key := range probes {
					if want := b.Contains(key); batch[i] != want {
						t.Fatalf("probe %d (%q): batch=%v per-key=%v", i, key, batch[i], want)
					}
				}

				wire, err := b.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				for mode, unmarshal := range map[string]func([]byte) (filtercore.Backend, error){
					"owned":  f.Unmarshal,
					"borrow": f.UnmarshalBorrow,
				} {
					dec, err := unmarshal(wire)
					if err != nil {
						t.Fatalf("%s unmarshal: %v", mode, err)
					}
					again, err := dec.MarshalBinary()
					if err != nil {
						t.Fatalf("%s re-marshal: %v", mode, err)
					}
					if !bytes.Equal(again, wire) {
						t.Fatalf("%s: re-marshal is not byte-identical (%d vs %d bytes)",
							mode, len(again), len(wire))
					}
					for i, key := range probes {
						if dec.Contains(key) != batch[i] {
							t.Fatalf("%s: decoded filter disagrees on probe %d", mode, i)
						}
					}
				}

				fresh := randomKey(rng, "fresh-")
				err = b.Add(fresh)
				if f.Static {
					if err != filtercore.ErrStaticBackend {
						t.Fatalf("static Add returned %v", err)
					}
					// A refused Add must leave the structure untouched.
					after, err := b.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(after, wire) {
						t.Fatal("refused Add mutated a static backend's wire bytes")
					}
				} else {
					if err != nil {
						t.Fatalf("mutable Add: %v", err)
					}
					if !b.Contains(fresh) {
						t.Fatal("added key not queryable")
					}
				}
			})
		}
	}
}

// randomKey draws a key of random length (prefix + 0..24 random bytes).
func randomKey(rng *rand.Rand, prefix string) []byte {
	tail := make([]byte, rng.Intn(25))
	rng.Read(tail)
	return append([]byte(prefix), tail...)
}
