package shard

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/filtercore"
	"repro/internal/habf"
)

func fixture(n int) ([][]byte, []habf.WeightedKey, [][]byte) {
	pos := make([][]byte, n)
	neg := make([]habf.WeightedKey, n)
	negKeys := make([][]byte, n)
	for i := 0; i < n; i++ {
		pos[i] = []byte(fmt.Sprintf("member-%06d", i))
		negKeys[i] = []byte(fmt.Sprintf("absent-%06d", i))
		neg[i] = habf.WeightedKey{Key: negKeys[i], Cost: float64(n - i)}
	}
	return pos, neg, negKeys
}

func newSet(t testing.TB, n int, cfg Config) (*Set, [][]byte, [][]byte) {
	t.Helper()
	pos, neg, negKeys := fixture(n)
	if cfg.TotalBits == 0 {
		cfg.TotalBits = uint64(12 * n)
	}
	s, err := New(pos, neg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, pos, negKeys
}

func TestNoFalseNegatives(t *testing.T) {
	s, pos, _ := newSet(t, 5000, Config{Shards: 8})
	for _, key := range pos {
		if !s.Contains(key) {
			t.Fatalf("false negative for %q", key)
		}
	}
}

// TestBatchMatchesPerKey pins ContainsBatchInto to Contains across the
// batch-length boundaries of an 8-shard set: below the shard count (the
// per-key route), exactly at it, around one HABF kernel chunk (64 keys),
// at and past the serving batch size (256) and far past it. Each batch is
// a window at an odd offset of the probe list, and dst is longer than the
// batch and starts out holding the opposite answers, so a missed write or
// a write past len(keys) shows. Rows cover a mutable backend, a static
// one holding pending Adds, and a read-only restore of the latter, whose
// pending keys came from the container's pending-keys frame.
func TestBatchMatchesPerKey(t *testing.T) {
	const n = 3000
	rows := []struct {
		name string
		set  func(t *testing.T, added [][]byte) *Set
	}{
		{"habf", func(t *testing.T, added [][]byte) *Set {
			s, _, _ := newSet(t, n, Config{Shards: 8})
			return s
		}},
		{"xor/pending", func(t *testing.T, added [][]byte) *Set {
			requireBackend(t, "xor")
			s, _, _ := newSet(t, n, Config{Shards: 8, Backend: "xor", RebuildThreshold: -1})
			for _, key := range added {
				s.Add(key)
			}
			if st := s.Stats(); st.Pending == 0 {
				t.Fatalf("no pending keys after %d Adds: %+v", len(added), st)
			}
			return s
		}},
		{"xor/read-only", func(t *testing.T, added [][]byte) *Set {
			requireBackend(t, "xor")
			s, _, _ := newSet(t, n, Config{Shards: 8, Backend: "xor", RebuildThreshold: -1})
			for _, key := range added {
				s.Add(key)
			}
			g := filterOnlyRoundtrip(t, s)
			if st := g.Stats(); st.Pending == 0 {
				t.Fatalf("no pending keys after a filter-only restore: %+v", st)
			}
			return g
		}},
	}
	pos, _, negKeys := fixture(n)
	var added, probe [][]byte
	for i := 0; i < 400; i++ {
		added = append(added, []byte(fmt.Sprintf("late-add-%06d", i)))
	}
	for i := 0; i < n; i++ {
		probe = append(probe, pos[i], negKeys[i])
	}
	probe = append(probe, added...)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s := row.set(t, added)
			want := make([]bool, len(probe))
			for i, key := range probe {
				want[i] = s.Contains(key)
			}
			// Every size up to twice the shard count, so batches with
			// fewer keys than shards are checked as well.
			lengths := []int{63, 64, 256, 257, 6000}
			for n := 1; n <= 2*s.NumShards(); n++ {
				lengths = append(lengths, n)
			}
			for _, length := range lengths {
				for _, off := range []int{1, 3, 101, 333} {
					if off+length > len(probe) {
						continue
					}
					const tail = 5
					dst := make([]bool, length+tail)
					for i := range dst {
						if i < length {
							dst[i] = !want[off+i]
						} else {
							dst[i] = i%2 == 0
						}
					}
					s.ContainsBatchInto(dst[:length], probe[off:off+length])
					for i := 0; i < length; i++ {
						if dst[i] != want[off+i] {
							t.Fatalf("len %d off %d: key %q batch=%v per-key=%v", length, off, probe[off+i], dst[i], want[off+i])
						}
					}
					s.ContainsBatchInto(dst, probe[off:off+length])
					for i := length; i < len(dst); i++ {
						if dst[i] != (i%2 == 0) {
							t.Fatalf("len %d off %d: dst[%d] past len(keys) was overwritten", length, off, i)
						}
					}
				}
			}
		})
	}
}

func TestShardingReducesWeightedFPRLikeSingleFilter(t *testing.T) {
	// A sharded filter is still an HABF per shard: the weighted FPR over
	// the known negatives must stay in the same regime as a single filter
	// at equal space (it is not required to be identical — routing splits
	// the optimization problem).
	pos, neg, negKeys := fixture(8000)
	bitsTotal := uint64(12 * len(pos))
	single, err := habf.New(pos, neg, habf.Params{TotalBits: bitsTotal})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(pos, neg, Config{Shards: 8, TotalBits: bitsTotal})
	if err != nil {
		t.Fatal(err)
	}
	count := func(contains func([]byte) bool) int {
		fp := 0
		for _, key := range negKeys {
			if contains(key) {
				fp++
			}
		}
		return fp
	}
	fpSingle := count(single.Contains)
	fpSharded := count(s.Contains)
	t.Logf("false positives over %d known negatives: single=%d sharded=%d", len(negKeys), fpSingle, fpSharded)
	// Known negatives are what HABF optimizes away; both should keep them
	// near zero. Allow the sharded one a small constant slack.
	if fpSharded > fpSingle+len(negKeys)/100 {
		t.Fatalf("sharding degraded known-negative FPs: single=%d sharded=%d", fpSingle, fpSharded)
	}
}

func TestShardCountRounding(t *testing.T) {
	s, _, _ := newSet(t, 500, Config{Shards: 6})
	if s.NumShards() != 8 {
		t.Fatalf("Shards=6 should round to 8, got %d", s.NumShards())
	}
	s1, _, _ := newSet(t, 500, Config{Shards: 1})
	if s1.NumShards() != 1 {
		t.Fatalf("Shards=1 got %d", s1.NumShards())
	}
	if !s1.Contains([]byte("member-000001")) {
		t.Fatal("single-shard set lost a key")
	}
	sd, _, _ := newSet(t, 500, Config{})
	if sd.NumShards() != DefaultShards {
		t.Fatalf("default shards = %d, want %d", sd.NumShards(), DefaultShards)
	}
	// Past 256 shards a narrow shard id would wrap and hand keys to the
	// wrong shard at construction; every member must still answer true.
	sw, pos, _ := newSet(t, 2000, Config{Shards: 300})
	if sw.NumShards() != 512 {
		t.Fatalf("Shards=300 should round to 512, got %d", sw.NumShards())
	}
	for _, key := range pos {
		if !sw.Contains(key) {
			t.Fatalf("512-shard set lost %q", key)
		}
	}
}

// TestInvalidCostRejected: a NaN or infinite cost would poison every cost
// sum of the per-shard builds, so New refuses it up front like a
// negative one.
func TestInvalidCostRejected(t *testing.T) {
	pos, neg, _ := fixture(100)
	for _, c := range []float64{-1, math.NaN(), math.Inf(1)} {
		bad := append([]habf.WeightedKey(nil), neg...)
		bad[len(bad)-1].Cost = c
		if _, err := New(pos, bad, Config{Shards: 4, TotalBits: 1200}); err == nil {
			t.Errorf("cost %v accepted", c)
		}
	}
}

// TestShardWindowsStaySeparate: New hands each shard a window of one
// shared backing array, in input order. Each window's capacity ends at
// its length, so Adds routed to one shard reallocate its list instead of
// writing over the next shard's keys.
func TestShardWindowsStaySeparate(t *testing.T) {
	s, pos, _ := newSet(t, 2000, Config{Shards: 4, RebuildThreshold: -1})
	index := make(map[string]int, len(pos))
	for i, key := range pos {
		index[string(key)] = i
	}
	total := 0
	for id, sh := range s.shards {
		if cap(sh.positives) != len(sh.positives) || cap(sh.negatives) != len(sh.negatives) {
			t.Fatalf("shard %d: positives len %d cap %d, negatives len %d cap %d",
				id, len(sh.positives), cap(sh.positives), len(sh.negatives), cap(sh.negatives))
		}
		last := -1
		for _, key := range sh.positives {
			i := index[string(key)]
			if i <= last || s.route(key) != id {
				t.Fatalf("shard %d: %q out of order or misrouted", id, key)
			}
			last = i
		}
		total += len(sh.positives)
	}
	if total != len(pos) {
		t.Fatalf("partition holds %d keys, want %d", total, len(pos))
	}

	neighbour := append([][]byte(nil), s.shards[1].positives...)
	added := 0
	for i := 0; added < 50; i++ {
		key := []byte(fmt.Sprintf("late-%06d", i))
		if s.route(key) == 0 {
			s.Add(key)
			pos = append(pos, key)
			added++
		}
	}
	got := s.shards[1].positives
	if len(got) != len(neighbour) {
		t.Fatalf("neighbour shard grew from %d to %d keys", len(neighbour), len(got))
	}
	for i := range got {
		if string(got[i]) != string(neighbour[i]) {
			t.Fatalf("neighbour key %d overwritten: %q, was %q", i, got[i], neighbour[i])
		}
	}
	for _, key := range pos {
		if !s.Contains(key) {
			t.Fatalf("false negative for %q", key)
		}
	}
}

func TestAddThenContains(t *testing.T) {
	s, _, _ := newSet(t, 2000, Config{Shards: 4, RebuildThreshold: -1})
	fresh := make([][]byte, 500)
	for i := range fresh {
		fresh[i] = []byte(fmt.Sprintf("late-%06d", i))
		s.Add(fresh[i])
		if !s.Contains(fresh[i]) {
			t.Fatalf("key %q not visible immediately after Add", fresh[i])
		}
	}
	for _, ok := range s.ContainsBatch(fresh) {
		if !ok {
			t.Fatal("batch lost an added key")
		}
	}
	if st := s.Stats(); st.Rebuilds != 0 {
		t.Fatalf("rebuilds ran with threshold disabled: %+v", st)
	}
}

func TestBackgroundRebuildFoldsAddsIn(t *testing.T) {
	s, pos, _ := newSet(t, 2000, Config{Shards: 4, RebuildThreshold: 0.01})
	var fresh [][]byte
	for i := 0; i < 400; i++ {
		k := []byte(fmt.Sprintf("late-%06d", i))
		fresh = append(fresh, k)
		s.Add(k)
	}
	s.WaitRebuilds()
	st := s.Stats()
	if st.Rebuilds == 0 {
		t.Fatalf("expected background rebuilds at threshold 1%%: %+v", st)
	}
	if st.RebuildErrors != 0 {
		t.Fatalf("rebuild errors: %+v", st)
	}
	for _, key := range append(append([][]byte{}, pos...), fresh...) {
		if !s.Contains(key) {
			t.Fatalf("false negative for %q after rebuild", key)
		}
	}
	if st.Keys != uint64(len(pos)+len(fresh)) {
		t.Fatalf("Stats.Keys = %d, want %d", st.Keys, len(pos)+len(fresh))
	}
}

// TestRebuildCascadesOnMidRebuildDrift holds a shard's rebuild open
// while more Adds land than the threshold allows, then lets it finish
// with no further Add: the swap must start the follow-up rebuild itself,
// so the shard does not serve a drifted filter until its next write.
func TestRebuildCascadesOnMidRebuildDrift(t *testing.T) {
	const n, threshold = 1000, 0.1
	s, _, _ := newSet(t, n, Config{Shards: 1, RebuildThreshold: threshold})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	fac := *s.backend
	build := fac.Build
	fac.Build = func(pos [][]byte, neg []habf.WeightedKey, cfg filtercore.BuildConfig) (filtercore.Backend, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
		return build(pos, neg, cfg)
	}
	s.backend = &fac

	add := func(from, to int) {
		for i := from; i < to; i++ {
			if err := s.Add([]byte(fmt.Sprintf("late-%06d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(0, n/10) // drift 100 = 0.1 × 1000 starts the first rebuild
	<-started
	// Built over 1100 keys; 200 more is past 0.1 × 1100.
	add(n/10, n/10+200)
	close(gate)
	s.WaitRebuilds()

	st := s.Stats()
	if st.Rebuilds != 2 || st.RebuildErrors != 0 {
		t.Fatalf("want the first rebuild plus one follow-up: %+v", st)
	}
	if float64(st.Added) >= threshold*float64(st.Keys-st.Added) {
		t.Fatalf("drift %d still at the threshold after WaitRebuilds: %+v", st.Added, st)
	}
	for i := 0; i < n/10+200; i++ {
		if key := []byte(fmt.Sprintf("late-%06d", i)); !s.Contains(key) {
			t.Fatalf("false negative for %q", key)
		}
	}
}

// TestRebuildsBoundedByCores drifts every shard of an 8-shard set at
// GOMAXPROCS 2 while each rebuild's build blocks on a gate: two builds
// may start, and no third until the gate opens. New bounds its builds
// the same way, so at most one builder scratch per core is live.
func TestRebuildsBoundedByCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n, procs = 4000, 2
	s, pos, _ := newSet(t, n, Config{Shards: 8, RebuildThreshold: 0.01})
	gate := make(chan struct{})
	started := make(chan struct{}, 64)
	fac := *s.backend
	build := fac.Build
	fac.Build = func(pos [][]byte, neg []habf.WeightedKey, cfg filtercore.BuildConfig) (filtercore.Backend, error) {
		started <- struct{}{}
		<-gate
		return build(pos, neg, cfg)
	}
	s.backend = &fac

	var fresh [][]byte
	for i := 0; i < 400; i++ {
		k := []byte(fmt.Sprintf("late-%06d", i))
		fresh = append(fresh, k)
		if err := s.Add(k); err != nil {
			t.Fatal(err)
		}
	}
	for range procs {
		<-started
	}
	select {
	case <-started:
		t.Errorf("a rebuild started while %d were building at GOMAXPROCS %d", procs, procs)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	s.WaitRebuilds()

	if st := s.Stats(); st.Rebuilds < 8 || st.RebuildErrors != 0 {
		t.Fatalf("want every shard rebuilt without errors: %+v", st)
	}
	for _, key := range append(pos, fresh...) {
		if !s.Contains(key) {
			t.Fatalf("false negative for %q after rebuild", key)
		}
	}
}

func TestEmptyShardServesAndFills(t *testing.T) {
	// One positive key: most shards come up empty yet must answer.
	one := [][]byte{[]byte("only")}
	s, err := New(one, nil, Config{Shards: 8, TotalBits: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Contains(one[0]) {
		t.Fatal("false negative on singleton")
	}
	if s.Contains([]byte("someone-else")) {
		t.Log("false positive on empty-ish set (possible, not fatal)")
	}
	// Adds route into empty shards and must lazily build them.
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("grown-%03d", i))
		s.Add(k)
		if !s.Contains(k) {
			t.Fatalf("empty shard did not absorb %q", k)
		}
	}
}

func TestEmptyPositivesRejected(t *testing.T) {
	if _, err := New(nil, nil, Config{TotalBits: 1024}); err == nil {
		t.Fatal("New accepted an empty positive set")
	}
}

func TestDeterministicConstruction(t *testing.T) {
	pos, neg, negKeys := fixture(2000)
	cfg := Config{Shards: 8, TotalBits: uint64(12 * len(pos)), Params: habf.Params{Seed: 7}}
	a, err := New(pos, neg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(pos, neg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range negKeys {
		if a.Contains(key) != b.Contains(key) {
			t.Fatalf("same seed, different answer for %q", key)
		}
	}
}

// TestConcurrentAddAndQuery exercises the headline concurrency contract
// under the race detector: many readers, many writers, background
// rebuilds — no external locking anywhere.
func TestConcurrentAddAndQuery(t *testing.T) {
	s, pos, negKeys := newSet(t, 4000, Config{Shards: 8, RebuildThreshold: 0.01})

	const writers = 2
	const perWriter = 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Add([]byte(fmt.Sprintf("hot-%d-%06d", w, i)))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			batch := make([][]byte, 0, 64)
			for i := 0; i < 2000; i++ {
				key := pos[(i*7+r)%len(pos)]
				if !s.Contains(key) {
					t.Errorf("false negative for %q under concurrency", key)
					return
				}
				batch = append(batch, key, negKeys[(i*3+r)%len(negKeys)])
				if len(batch) == cap(batch) {
					for j, ok := range s.ContainsBatch(batch) {
						if j%2 == 0 && !ok {
							t.Errorf("batch false negative under concurrency")
							return
						}
					}
					batch = batch[:0]
				}
			}
		}(r)
	}
	wg.Wait()
	s.WaitRebuilds()

	st := s.Stats()
	if st.RebuildErrors != 0 {
		t.Fatalf("rebuild errors: %+v", st)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			key := []byte(fmt.Sprintf("hot-%d-%06d", w, i))
			if !s.Contains(key) {
				t.Fatalf("added key %q lost", key)
			}
		}
	}
}
