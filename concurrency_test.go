// Concurrency contracts, meant to run under -race (CI does):
//
//   - *HABF: Add must be externally synchronized against readers; under
//     the documented discipline (readers RLock, writer Lock) concurrent
//     use is safe.
//   - *Sharded: no external locking at all — Contains, ContainsBatch and
//     Add from any number of goroutines, with background rebuilds firing
//     mid-flight.
package habf_test

import (
	"fmt"
	"sync"
	"testing"

	habf "repro"
)

func concFixture(t testing.TB, n int) ([][]byte, []habf.WeightedKey) {
	t.Helper()
	pos := make([][]byte, n)
	neg := make([]habf.WeightedKey, n)
	for i := 0; i < n; i++ {
		pos[i] = []byte(fmt.Sprintf("user%08d", i))
		neg[i] = habf.WeightedKey{Key: []byte(fmt.Sprintf("miss%08d", i)), Cost: float64(n - i)}
	}
	return pos, neg
}

// TestFilterConcurrentReadsWithExternallyLockedAdd hammers Contains from
// many goroutines while Add runs under the external lock the *HABF docs
// require. Run with -race to validate the documented discipline.
func TestFilterConcurrentReadsWithExternallyLockedAdd(t *testing.T) {
	pos, neg := concFixture(t, 3000)
	f, err := habf.New(pos, neg, uint64(12*len(pos)))
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.RWMutex
	var wg sync.WaitGroup
	const added = 200
	wg.Add(1)
	go func() { // writer: the documented external write lock
		defer wg.Done()
		for i := 0; i < added; i++ {
			mu.Lock()
			f.Add([]byte(fmt.Sprintf("late%08d", i)))
			mu.Unlock()
		}
	}()
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				key := pos[(i*13+r)%len(pos)]
				mu.RLock()
				ok := f.Contains(key)
				mu.RUnlock()
				if !ok {
					t.Errorf("false negative for %q under concurrent reads", key)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for i := 0; i < added; i++ {
		if key := []byte(fmt.Sprintf("late%08d", i)); !f.Contains(key) {
			t.Fatalf("added key %q lost", key)
		}
	}
}

// TestShardedConcurrentUseWithoutLocking is the tentpole contract: a
// *Sharded needs no external synchronization even while Adds trigger
// background rebuilds.
func TestShardedConcurrentUseWithoutLocking(t *testing.T) {
	pos, neg := concFixture(t, 4000)
	s, err := habf.NewSharded(pos, neg, uint64(12*len(pos)),
		habf.WithShards(8), habf.WithRebuildThreshold(0.01))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	const writers, perWriter = 2, 400
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Add([]byte(fmt.Sprintf("late%d-%08d", w, i)))
			}
		}(w)
	}
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			batch := make([][]byte, 128)
			for round := 0; round < 20; round++ {
				for i := range batch {
					if i%2 == 0 {
						batch[i] = pos[(round*len(batch)+i+r)%len(pos)]
					} else {
						batch[i] = neg[(round*len(batch)+i+r)%len(neg)].Key
					}
				}
				res := s.ContainsBatch(batch)
				for i := 0; i < len(batch); i += 2 {
					if !res[i] {
						t.Errorf("batch false negative for %q", batch[i])
						return
					}
				}
				if !s.Contains(pos[(round+r)%len(pos)]) {
					t.Error("per-key false negative under concurrency")
					return
				}
			}
		}(r)
	}
	wg.Wait()
	s.WaitRebuilds()

	st := s.Stats()
	if st.Rebuilds == 0 {
		t.Fatalf("expected background rebuilds at threshold 1%%, got %+v", st)
	}
	if st.RebuildErrors != 0 {
		t.Fatalf("rebuild errors: %+v", st)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if key := []byte(fmt.Sprintf("late%d-%08d", w, i)); !s.Contains(key) {
				t.Fatalf("added key %q lost after rebuilds", key)
			}
		}
	}
}

func TestShardedBasics(t *testing.T) {
	pos, neg := concFixture(t, 3000)
	s, err := habf.NewSharded(pos, neg, uint64(12*len(pos)),
		habf.WithShards(4), habf.WithFastShards(),
		habf.WithShardFilterOptions(habf.WithSeed(9)))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	if s.Name() != "Sharded[4×f-HABF]" {
		t.Fatalf("Name = %q", s.Name())
	}
	if s.SizeBits() == 0 {
		t.Fatal("SizeBits = 0")
	}
	for _, key := range pos {
		if !s.Contains(key) {
			t.Fatalf("false negative for %q", key)
		}
	}
	// A Sharded is a Filter: the measurement helpers apply.
	negKeys := make([][]byte, len(neg))
	costs := make([]float64, len(neg))
	for i, wk := range neg {
		negKeys[i], costs[i] = wk.Key, wk.Cost
	}
	fnr, err := habf.FNR(s, pos)
	if err != nil {
		t.Fatal(err)
	}
	if fnr != 0 {
		t.Fatalf("FNR = %v, want 0", fnr)
	}
	wfpr, err := habf.WeightedFPR(s, negKeys, costs)
	if err != nil {
		t.Fatal(err)
	}
	if wfpr > 0.05 {
		t.Fatalf("weighted FPR %.4f unexpectedly high for known negatives", wfpr)
	}
}

// TestShardedAddFromReusedBuffer adds keys from one buffer that the caller
// rewrites between Adds, as a bufio.Scanner loop does. Add must copy what
// it keeps: the drift rebuilds it triggers read the retained keys, and
// every added key must still answer true after them.
func TestShardedAddFromReusedBuffer(t *testing.T) {
	pos, neg := concFixture(t, 20000)
	s, err := habf.NewSharded(pos, neg, uint64(10*len(pos)),
		habf.WithShards(4), habf.WithShardFilterOptions(habf.WithSeed(9)))
	if err != nil {
		t.Fatal(err)
	}
	const adds = 2000
	buf := make([]byte, 0, 20)
	for i := 0; i < adds; i++ {
		buf = fmt.Appendf(buf[:0], "added/%014d", i)
		s.Add(buf)
	}
	s.WaitRebuilds()
	lost := 0
	for i := 0; i < adds; i++ {
		if !s.Contains(fmt.Appendf(nil, "added/%014d", i)) {
			lost++
		}
	}
	if lost != 0 {
		t.Fatalf("%d of %d keys added from a reused buffer answer false after rebuilds", lost, adds)
	}
}
