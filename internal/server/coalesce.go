package server

import (
	"sync"
	"sync/atomic"
)

// Batcher is the query capability the coalescer dispatches to — in
// production the server's swappable *habf.Sharded, whose
// ContainsBatchInto takes each shard's lock once per chunk instead of
// once per key and writes results into a caller-owned slice, so
// steady-state dispatch allocates nothing.
type Batcher interface {
	Contains(key []byte) bool
	ContainsBatchInto(dst []bool, keys [][]byte)
}

// The coalescer's fixed policy. A dispatcher dispatches whatever a
// non-blocking drain of the queue finds, up to coalesceMaxBatch keys;
// it never lingers for stragglers.
const (
	coalesceMaxBatch    = 256
	coalesceDispatchers = 2
)

// coalReq is one in-flight single-key query. The result channel is
// buffered so a dispatcher never blocks delivering; requests are pooled
// and the channel reused across queries.
type coalReq struct {
	key []byte
	res chan bool
}

var reqPool = sync.Pool{New: func() any { return &coalReq{res: make(chan bool, 1)} }}

// CoalesceStats is a point-in-time summary of coalescer activity.
type CoalesceStats struct {
	// Keys is the number of single-key queries answered through batches.
	Keys uint64
	// Batches is the number of micro-batches dispatched.
	Batches uint64
	// Direct counts queries answered on the per-key path because they
	// arrived during or after Close.
	Direct uint64
}

// MeanBatch returns the average dispatched batch size.
func (s CoalesceStats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Keys) / float64(s.Batches)
}

// Coalescer gathers concurrent single-key Contains calls into
// micro-batches and dispatches them through Batcher.ContainsBatchInto,
// so independent network callers share the per-chunk lock round and
// scratch reuse that in-process batch callers already enjoy.
//
// A dispatcher blocks for the first request, then drains whatever is
// already queued without blocking. Under concurrent load that alone
// forms healthy batches, because requests accumulate while the previous
// batch executes; an idle server answers a lone request at once.
type Coalescer struct {
	b        Batcher
	maxBatch int

	// mu pins the closed → channel-close ordering: senders hold the read
	// lock across the closed check and the send, Close takes the write
	// lock to set closed and close the channel, so no send can hit a
	// closed channel.
	mu      sync.RWMutex
	closed  bool
	reqs    chan *coalReq
	workers sync.WaitGroup

	keys    atomic.Uint64
	batches atomic.Uint64
	direct  atomic.Uint64

	// onBatch, when set, observes each dispatched batch size (metrics).
	onBatch func(n int)
}

// newCoalescer starts dispatchers goroutines over b, each dispatching
// batches of at most maxBatch keys. Callers must Close the coalescer to
// release them.
func newCoalescer(b Batcher, maxBatch, dispatchers int) *Coalescer {
	c := &Coalescer{
		b:        b,
		maxBatch: maxBatch,
		// Channel capacity covers several full batches so senders do not
		// block while a dispatch is executing.
		reqs: make(chan *coalReq, 4*maxBatch*dispatchers),
	}
	c.workers.Add(dispatchers)
	for i := 0; i < dispatchers; i++ {
		go c.dispatch()
	}
	return c
}

// Contains answers a single-key membership query, transparently batched
// with whatever other queries are in flight. Safe for any number of
// concurrent callers. After Close it falls back to a direct per-key
// query, so late requests still get answers.
func (c *Coalescer) Contains(key []byte) bool {
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		c.direct.Add(1)
		return c.b.Contains(key)
	}
	r := reqPool.Get().(*coalReq)
	r.key = key
	c.reqs <- r
	c.mu.RUnlock()
	ok := <-r.res
	r.key = nil
	reqPool.Put(r)
	return ok
}

// Stats returns cumulative coalescing counters.
func (c *Coalescer) Stats() CoalesceStats {
	return CoalesceStats{
		Keys:    c.keys.Load(),
		Batches: c.batches.Load(),
		Direct:  c.direct.Load(),
	}
}

// Close drains in-flight batches and stops the dispatchers. Queries
// racing with Close are still answered (coalesced if they made it into
// the queue, directly otherwise). Close is idempotent.
func (c *Coalescer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.reqs)
	c.mu.Unlock()
	c.workers.Wait()
}

// dispatch is the batch-forming loop: block for the first request, drain
// what is already queued, then answer the whole batch through one
// ContainsBatchInto call.
func (c *Coalescer) dispatch() {
	defer c.workers.Done()
	var (
		keys  = make([][]byte, 0, c.maxBatch)
		batch = make([]*coalReq, 0, c.maxBatch)
		// results is this dispatcher's result buffer; batches never
		// exceed maxBatch, so it never regrows.
		results = make([]bool, c.maxBatch)
	)
	for r := range c.reqs {
		keys = append(keys[:0], r.key)
		batch = append(batch[:0], r)
	drain:
		for len(batch) < c.maxBatch {
			select {
			case r, ok := <-c.reqs:
				if !ok {
					break drain
				}
				keys = append(keys, r.key)
				batch = append(batch, r)
			default:
				break drain
			}
		}

		res := results[:len(batch)]
		c.b.ContainsBatchInto(res, keys)
		// Count before answering, so a caller that got its answer also
		// sees its key in Stats.
		c.keys.Add(uint64(len(batch)))
		c.batches.Add(1)
		if c.onBatch != nil {
			c.onBatch(len(batch))
		}
		for i, r := range batch {
			r.res <- res[i]
			// Release the key and request references now: the scratch
			// slices are reused via [:0], so slots left behind by a large
			// batch would otherwise pin every past caller's key bytes
			// until a later batch happens to grow over them.
			keys[i] = nil
			batch[i] = nil
		}
	}
}
