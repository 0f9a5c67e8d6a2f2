package habf

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func batchFixture(t testing.TB, n int, fast bool) (*Filter, [][]byte, [][]byte) {
	t.Helper()
	pos := make([][]byte, n)
	neg := make([]WeightedKey, n)
	negKeys := make([][]byte, n)
	for i := 0; i < n; i++ {
		pos[i] = []byte(fmt.Sprintf("pos-%06d", i))
		negKeys[i] = []byte(fmt.Sprintf("neg-%06d", i))
		neg[i] = WeightedKey{Key: negKeys[i], Cost: float64(n - i)}
	}
	f, err := New(pos, neg, Params{TotalBits: uint64(12 * n), Fast: fast})
	if err != nil {
		t.Fatal(err)
	}
	return f, pos, negKeys
}

// TestContainsBatchMatchesContains pins the batch path to the per-key
// path bit for bit: same keys, same answers, in both hashing regimes.
func TestContainsBatchMatchesContains(t *testing.T) {
	for _, fast := range []bool{false, true} {
		t.Run(fmt.Sprintf("fast=%v", fast), func(t *testing.T) {
			f, pos, neg := batchFixture(t, 2000, fast)
			probe := append(append([][]byte{}, pos...), neg...)
			got := f.ContainsBatch(probe)
			if len(got) != len(probe) {
				t.Fatalf("ContainsBatch returned %d results for %d keys", len(got), len(probe))
			}
			for i, key := range probe {
				if want := f.Contains(key); got[i] != want {
					t.Fatalf("key %q: batch=%v per-key=%v", key, got[i], want)
				}
			}
			for i := range pos {
				if !got[i] {
					t.Fatalf("false negative for positive key %q in batch", pos[i])
				}
			}
		})
	}
}

// passesH0 reports whether key passes round one: every bit of its
// default selection H0 is set.
func passesH0(f *Filter, key []byte) bool {
	ks := f.fam.prepare(key)
	for _, idx := range f.h0 {
		if !f.bfBits.Test(f.fam.pos(ks, idx, f.bloomLen)) {
			return false
		}
	}
	return true
}

// TestContainsBatchChunkEdges pins the staged kernel to Contains at its
// chunk boundaries (lengths 0, 1, 63, 64, 65, 257 at many offsets) over a
// pool that mixes the answers round two decides: adjusted positives that
// fail H0 and are recovered from the HashExpressor, and negatives whose
// entry cell is occupied but whose chain is incomplete. Every dst slot
// starts at the wrong answer, so a slot the kernel skips shows.
func TestContainsBatchChunkEdges(t *testing.T) {
	for _, fast := range []bool{false, true} {
		t.Run(fmt.Sprintf("fast=%v", fast), func(t *testing.T) {
			f, pos, neg := batchFixture(t, 2000, fast)
			var adjusted, broken [][]byte
			for _, k := range pos {
				if !passesH0(f, k) {
					if !f.Contains(k) {
						t.Fatalf("false negative for adjusted positive %q", k)
					}
					adjusted = append(adjusted, k)
				}
			}
			for i := 0; len(broken) < 64 && i < 100_000; i++ {
				k := []byte(fmt.Sprintf("edge-%d", i))
				ks := f.fam.prepare(k)
				if !passesH0(f, k) && f.he.occupied(f.fam.entry(ks, f.he.omega)) &&
					f.he.query(f.fam, ks, nil) == nil {
					broken = append(broken, k)
				}
			}
			if len(adjusted) == 0 || len(broken) == 0 {
				t.Fatalf("fixture lacks round-two cases: %d adjusted positives, %d broken chains",
					len(adjusted), len(broken))
			}
			var pool [][]byte
			for i := 0; i < 150; i++ {
				pool = append(pool, adjusted[i%len(adjusted)], pos[i], broken[i%len(broken)], neg[i])
			}
			want := make([]bool, len(pool))
			for i, k := range pool {
				want[i] = f.Contains(k)
			}
			dst := make([]bool, len(pool)+1)
			for _, n := range []int{0, 1, 63, 64, 65, 257} {
				for lo := 0; lo+n <= len(pool); lo += 37 {
					for i := range dst {
						dst[i] = i >= n || !want[lo+i]
					}
					f.ContainsBatchInto(dst, pool[lo:lo+n])
					for i := 0; i < n; i++ {
						if dst[i] != want[lo+i] {
							t.Fatalf("n=%d lo=%d: key %q batch=%v per-key=%v", n, lo, pool[lo+i], dst[i], want[lo+i])
						}
					}
					if !dst[n] {
						t.Fatalf("n=%d lo=%d: wrote past len(keys)", n, lo)
					}
				}
			}
		})
	}
}

func TestContainsBatchIntoLeavesTailUntouched(t *testing.T) {
	for _, fast := range []bool{false, true} {
		f, pos, _ := batchFixture(t, 200, fast)
		dst := make([]bool, len(pos)+3)
		dst[len(pos)] = true // sentinel past the batch
		f.ContainsBatchInto(dst, pos)
		if !dst[len(pos)] {
			t.Fatalf("fast=%v: ContainsBatchInto wrote past len(keys)", fast)
		}
		for i := range pos {
			if !dst[i] {
				t.Fatalf("fast=%v: false negative for positive key %d", fast, i)
			}
		}
	}
}

// TestContainsBatchLanes checks the slow-mode kernel against Contains
// where a round-one stage uses each 4-lane form: once over probes of one
// length, which hash in lockstep, and once over probes of mixed lengths,
// whose groups fall back to the scalar function.
func TestContainsBatchLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	key := func(n int) []byte {
		k := make([]byte, n)
		rng.Read(k)
		return k
	}
	var same, mixed [][]byte // members, then as many fresh keys
	var neg []WeightedKey
	for i := 0; i < 2000; i++ {
		same = append(same, key(32))
		mixed = append(mixed, key(1+i%40))
		neg = append(neg, WeightedKey{Key: key(32), Cost: 1}, WeightedKey{Key: key(1 + i%40), Cost: 2})
	}
	members := append(append([][]byte{}, same...), mixed...)
	for i := 0; i < 2000; i++ {
		same = append(same, key(32))
		mixed = append(mixed, key(1+i%40))
	}
	for _, form := range []laneForm{laneOAAT, laneHsieh} {
		// The first seed whose H0 includes the function with this form.
		var f *Filter
		for seed := int64(1); f == nil; seed++ {
			g, err := New(members, neg, Params{TotalBits: uint64(10 * len(members)), Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, idx := range g.h0 {
				if g.fam.lanes[idx] == form {
					f = g
				}
			}
		}
		for name, probes := range map[string][][]byte{"same length": same, "mixed lengths": mixed} {
			dst := make([]bool, len(probes))
			f.ContainsBatchInto(dst, probes)
			for i, k := range probes {
				if want := f.Contains(k); dst[i] != want {
					t.Fatalf("form %d, %s: key %x batch=%v per-key=%v", form, name, k, dst[i], want)
				}
				if i < 2000 && !dst[i] {
					t.Fatalf("form %d, %s: false negative for member %x", form, name, k)
				}
			}
		}
	}
}

// TestContainsBatchIntoZeroAllocs pins the kernel's per-chunk state to
// the stack.
func TestContainsBatchIntoZeroAllocs(t *testing.T) {
	for _, fast := range []bool{false, true} {
		f, pos, neg := batchFixture(t, 500, fast)
		keys := append(append([][]byte{}, pos[:150]...), neg[:150]...)
		dst := make([]bool, len(keys))
		if avg := testing.AllocsPerRun(20, func() { f.ContainsBatchInto(dst, keys) }); avg != 0 {
			t.Errorf("fast=%v: ContainsBatchInto allocates %.1f objects per batch, want 0", fast, avg)
		}
	}
}

func TestContainsBatchEmpty(t *testing.T) {
	f, _, _ := batchFixture(t, 50, false)
	if out := f.ContainsBatch(nil); len(out) != 0 {
		t.Fatalf("ContainsBatch(nil) = %v", out)
	}
}

// coldFilters caches the BenchmarkContainsBatch filters: building them
// takes seconds, and every sub-benchmark probes the same two.
var coldFilters struct {
	once       sync.Once
	slow, fast *Filter
	probes     [][]byte
}

// coldFixture builds a slow and an f-HABF filter over 2M random 32-byte
// members at 10 bits per key (about 2.5 MB, more than a 2 MiB L2), and a
// shuffled probe stream of 1M members and 1M negatives, a fifth of them
// known to construction, so the filter's arrays miss the caches.
func coldFixture(b *testing.B) (slow, fast *Filter, probes [][]byte) {
	c := &coldFilters
	c.once.Do(func() {
		const members, negatives = 2_000_000, 200_000
		rng := rand.New(rand.NewSource(1))
		arena := make([]byte, 32*(members+2*negatives))
		rng.Read(arena)
		key := func(i int) []byte { return arena[32*i : 32*i+32 : 32*i+32] }
		pos := make([][]byte, members)
		for i := range pos {
			pos[i] = key(i)
		}
		neg := make([]WeightedKey, negatives)
		for i := range neg {
			neg[i] = WeightedKey{Key: key(members + i), Cost: 1}
		}
		var err error
		p := Params{TotalBits: 10 * members}
		if c.slow, err = New(pos, neg, p); err != nil {
			panic(err)
		}
		p.Fast = true
		if c.fast, err = New(pos, neg, p); err != nil {
			panic(err)
		}
		c.probes = make([][]byte, 0, 2*members)
		for i := 0; i < members; i += 2 {
			c.probes = append(c.probes, key(i), key(members+i%(2*negatives)))
		}
		rng.Shuffle(len(c.probes), func(i, j int) {
			c.probes[i], c.probes[j] = c.probes[j], c.probes[i]
		})
		// Lay the probe keys out in probe order, as keys just read off the
		// wire are: the filter's arrays are cold, the key bytes are not.
		stream := make([]byte, 32*len(c.probes))
		for i, k := range c.probes {
			c.probes[i] = stream[32*i : 32*i+32 : 32*i+32]
			copy(c.probes[i], k)
		}
	})
	return c.slow, c.fast, c.probes
}

var sinkHits int

// BenchmarkContainsBatch compares the per-key Contains loop with the
// staged ContainsBatchInto kernel on filters larger than L2, 256 keys per
// call. Reported per key (ns/op is one key).
//
//	go test -run '^$' -bench ContainsBatch -benchtime 2000000x ./internal/habf
func BenchmarkContainsBatch(b *testing.B) {
	slow, fast, probes := coldFixture(b)
	const batch = 256
	for _, fc := range []struct {
		name string
		f    *Filter
	}{{"slow", slow}, {"fast", fast}} {
		b.Run(fc.name+"/perkey", func(b *testing.B) {
			hits, at := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fc.f.Contains(probes[at]) {
					hits++
				}
				if at++; at == len(probes) {
					at = 0
				}
			}
			sinkHits = hits
		})
		b.Run(fc.name+"/batch", func(b *testing.B) {
			dst := make([]bool, batch)
			hits, at := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				if at+batch > len(probes) {
					at = 0
				}
				fc.f.ContainsBatchInto(dst, probes[at:at+batch])
				at += batch
				for _, ok := range dst {
					if ok {
						hits++
					}
				}
			}
			sinkHits = hits
		})
	}
}
