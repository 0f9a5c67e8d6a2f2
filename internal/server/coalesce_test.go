package server

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedBatcher holds the first batch dispatched through it until
// release is closed, so a test can make requests queue up behind it.
type gatedBatcher struct {
	Batcher
	first   atomic.Bool
	held    chan int // receives the first batch's size, then blocks
	release chan struct{}
}

func (g *gatedBatcher) ContainsBatchInto(dst []bool, keys [][]byte) {
	if g.first.CompareAndSwap(false, true) {
		g.held <- len(keys)
		<-g.release
	}
	g.Batcher.ContainsBatchInto(dst, keys)
}

// TestCoalescerAgreesWithDirect drives many concurrent single-key
// queries through the coalescer and checks every answer against the
// filter's own verdict. The first dispatch is held until every other
// worker's request is queued, so at least one batch of more than one
// key forms even on a single-core host.
func TestCoalescerAgreesWithDirect(t *testing.T) {
	filter, data := newTestFilter(t, 3000)
	gate := &gatedBatcher{Batcher: filter, held: make(chan int, 1), release: make(chan struct{})}
	co := newCoalescer(gate, coalesceMaxBatch, 1)
	defer co.Close()

	probes := append(append([][]byte{}, data.Positives...), data.Negatives...)
	want := filter.ContainsBatch(probes)

	const workers = 8
	var wg sync.WaitGroup
	var mismatches atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(probes); i += workers {
				if co.Contains(probes[i]) != want[i] {
					mismatches.Add(1)
				}
			}
		}(w)
	}
	// Each worker has at most one query in flight: the held batch plus
	// the queue account for all of them once every worker is waiting.
	first := <-gate.held
	for first+len(co.reqs) < workers {
		time.Sleep(100 * time.Microsecond)
	}
	close(gate.release)
	wg.Wait()
	if n := mismatches.Load(); n != 0 {
		t.Fatalf("%d coalesced answers disagree with direct queries", n)
	}
	st := co.Stats()
	if st.Keys != uint64(len(probes)) {
		t.Fatalf("coalescer served %d keys, want %d", st.Keys, len(probes))
	}
	if st.Batches == 0 || st.Batches >= st.Keys {
		t.Fatalf("no coalescing happened: %d batches for %d keys", st.Batches, st.Keys)
	}
	t.Logf("batches=%d keys=%d mean=%.1f", st.Batches, st.Keys, st.MeanBatch())
}

// TestCoalescerMaxBatch pins the batch-size bound.
func TestCoalescerMaxBatch(t *testing.T) {
	filter, data := newTestFilter(t, 500)
	co := newCoalescer(filter, 4, 1)
	defer co.Close()
	var tooBig atomic.Int64
	co.onBatch = func(n int) {
		if n > 4 {
			tooBig.Add(1)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				co.Contains(data.Positives[(w*200+i)%len(data.Positives)])
			}
		}(w)
	}
	wg.Wait()
	if n := tooBig.Load(); n != 0 {
		t.Fatalf("%d batches exceeded the batch bound", n)
	}
}

// TestCoalescerCloseDuringTraffic closes the coalescer while queries are
// in flight: every caller must still get a correct answer, before and
// after the dispatchers drain.
func TestCoalescerCloseDuringTraffic(t *testing.T) {
	filter, data := newTestFilter(t, 2000)
	co := newCoalescer(filter, 16, coalesceDispatchers)

	const workers = 8
	var wg sync.WaitGroup
	var wrong atomic.Int64
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 500; i++ {
				key := data.Positives[(w*500+i)%len(data.Positives)]
				if !co.Contains(key) {
					wrong.Add(1) // members can never be denied
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	co.Close()
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d queries lost their answer across Close", n)
	}
	st := co.Stats()
	if st.Keys+st.Direct != workers*500 {
		t.Fatalf("answers unaccounted: coalesced %d + direct %d != %d", st.Keys, st.Direct, workers*500)
	}
	co.Close() // idempotent
}

// TestCoalescerReleasesKeyReferences pins the scratch-release fix: a
// dispatched batch's key references must become collectible as soon as
// the batch is answered. The dispatcher's keys/batch scratch is reused
// via [:0], so before the fix the slots of the most recent batch kept
// pointing at callers' key bytes indefinitely — this test fails there
// with exactly one key (the last one) never freed.
func TestCoalescerReleasesKeyReferences(t *testing.T) {
	filter, _ := newTestFilter(t, 300)
	co := newCoalescer(filter, coalesceMaxBatch, 1)
	defer co.Close()

	const n = 32
	var freed atomic.Int64
	for i := 0; i < n; i++ {
		key := make([]byte, 64)
		key[0] = byte(i)
		runtime.SetFinalizer(&key[0], func(*byte) { freed.Add(1) })
		co.Contains(key)
	}

	deadline := time.Now().Add(10 * time.Second)
	for freed.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d dispatched keys were released; the coalescer scratch still pins the rest", freed.Load(), n)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkCoalesce compares the uncoalesced per-request path against
// the coalesced one at ≥8 concurrent clients, in-process. On a
// single-core host the channel handoff dominates and direct wins; the
// coalescer's value there is the shared-batch execution visible in
// MeanBatch. On multi-core hosts the batch path's one-lock-round-per-
// chunk amortization is what scales — see BenchmarkShardedContainsBatch
// at the repo root and the end-to-end `habfbench -net` comparison,
// where both paths carry identical per-request HTTP cost.
func BenchmarkCoalesce(b *testing.B) {
	filter, data := newTestFilter(b, 100000)
	probes := make([][]byte, 1<<14)
	for i := range probes {
		if i%2 == 0 {
			probes[i] = data.Negatives[(i*40503)%len(data.Negatives)]
		} else {
			// uint64 arithmetic: the Knuth constant overflows int on
			// 32-bit hosts (GOARCH=386 vet).
			probes[i] = data.Positives[uint64(i)*2654435761%uint64(len(data.Positives))]
		}
	}
	mask := len(probes) - 1

	b.Run("direct/c8", func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(8)
		var ctr atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(ctr.Add(1))
				_ = filter.Contains(probes[i&mask])
			}
		})
	})
	b.Run("coalesced/c8", func(b *testing.B) {
		b.ReportAllocs()
		co := newCoalescer(filter, coalesceMaxBatch, coalesceDispatchers)
		defer co.Close()
		b.SetParallelism(8)
		var ctr atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(ctr.Add(1))
				_ = co.Contains(probes[i&mask])
			}
		})
		b.StopTimer()
		st := co.Stats()
		b.ReportMetric(st.MeanBatch(), "keys/batch")
	})
	for _, batch := range []int{64, 256} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for lo := 0; lo < b.N; lo += batch {
				n := batch
				if lo+n > b.N {
					n = b.N - lo
				}
				start := lo & mask
				end := start + n
				if end > len(probes) {
					end = len(probes)
				}
				_ = filter.ContainsBatch(probes[start:end])
			}
		})
	}
}
