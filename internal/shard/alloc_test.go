package shard

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/hashes"
)

// TestPartitionAllocsFlat: the construction-time partition allocates a
// fixed number of exactly sized arrays, whatever the key count — no
// per-shard slice growth.
func TestPartitionAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race for alloc counts")
	}
	route := func(key []byte) uint32 { return uint32(hashes.Base(key) >> 60) }
	allocs := func(n int) float64 {
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("member-%06d", i))
		}
		return testing.AllocsPerRun(5, func() { partition(keys, 16, route) })
	}
	if small, large := allocs(1000), allocs(100000); small != large {
		t.Errorf("partition allocates %.0f objects at N=1,000 but %.0f at N=100,000", small, large)
	}
}

// TestContainsBatchIntoZeroAllocs pins the zero-alloc contract of the
// batch read path: once the scratch pool is warm, a ContainsBatchInto
// with a caller-owned destination allocates nothing — across every
// backend, prepared (base-hash) or not.
func TestContainsBatchIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race for alloc counts")
	}
	for _, backend := range []string{"habf", "bloom", "xor", "wbf", "phbf"} {
		t.Run(backend, func(t *testing.T) {
			s, pos, negKeys := newSet(t, 2048, Config{Shards: 8, Backend: backend})
			batch := make([][]byte, 0, 256)
			for i := 0; i < 128; i++ {
				batch = append(batch, pos[i*7%len(pos)], negKeys[i*11%len(negKeys)])
			}
			dst := make([]bool, len(batch))
			// Warm the scratch pool (the first batches may grow it).
			for i := 0; i < 8; i++ {
				s.ContainsBatchInto(dst, batch)
			}
			avg := testing.AllocsPerRun(50, func() {
				s.ContainsBatchInto(dst, batch)
			})
			if avg != 0 {
				t.Errorf("%s: ContainsBatchInto allocates %.1f objects per batch, want 0", backend, avg)
			}
		})
	}
}

// TestContainsBatchIntoZeroAllocsSeeded64 covers the serving bloom
// flavour on a restored set: its shards serve borrowed payloads straight
// from the snapshot buffer, and the batch probe must stay
// allocation-free there too.
func TestContainsBatchIntoZeroAllocsSeeded64(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race for alloc counts")
	}
	s, pos, negKeys := newSet(t, 2048, Config{Shards: 8, Backend: "bloom"})
	g := snapshotRoundtrip(t, s)
	batch := append(append([][]byte{}, pos[:128]...), negKeys[:128]...)
	dst := make([]bool, len(batch))
	g.ContainsBatchInto(dst, batch)
	if avg := testing.AllocsPerRun(50, func() {
		g.ContainsBatchInto(dst, batch)
	}); avg != 0 {
		t.Errorf("restored seeded64: ContainsBatchInto allocates %.1f objects per batch, want 0", avg)
	}
}

// TestBatchDispatchTorture drives the batch path under -race with
// everything it must coexist with: concurrent Adds (write locks on single
// shards), background rebuild swaps (write locks plus filter replacement),
// and concurrent batch callers sharing the scratch pool.
func TestBatchDispatchTorture(t *testing.T) {
	s, pos, negKeys := newSet(t, 4096, Config{Shards: 8})
	batch := make([][]byte, 0, 512)
	for i := 0; i < 256; i++ {
		batch = append(batch, pos[i*5%len(pos)], negKeys[i*3%len(negKeys)])
	}
	want := make([]bool, len(batch))
	for i, key := range batch {
		want[i] = s.Contains(key)
	}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Writers: concurrent Adds of fresh keys (never probed, so the
	// readers' expected answers stay stable).
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Add([]byte(fmt.Sprintf("torture-add-%d-%06d", w, i)))
			}
		}(w)
	}
	// Readers: parallel batches racing the writers and each other. Adds
	// of unrelated keys and rebuild swaps must never flip an existing
	// key's answer from member to non-member.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			dst := make([]bool, len(batch))
			for n := 0; n < 200; n++ {
				s.ContainsBatchInto(dst, batch)
				for i := range want {
					if want[i] && !dst[i] {
						t.Errorf("iteration %d: member %q answered false during torture", n, batch[i])
						return
					}
				}
			}
		}()
	}
	// One round of per-key queries mixed in, exercising the non-batch
	// read lock path against the same writers.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for n := 0; n < 2000; n++ {
			i := n % len(batch)
			if got := s.Contains(batch[i]); want[i] && !got {
				t.Errorf("per-key: member %q answered false during torture", batch[i])
				return
			}
		}
	}()

	// Let readers finish, then stop the writers and wait for any rebuild
	// the Adds kicked off.
	readers.Wait()
	close(stop)
	writers.Wait()
	s.WaitRebuilds()
}
