// Package router fans membership queries out across a replica set — a
// primary habfserved and its snapshot-shipping followers — over the
// binary wire protocol, with tail-latency hedging and health-based
// replica ejection.
//
// A ContainsBatch is split into contiguous chunks, one per healthy
// replica, so a large batch rides every replica's cores at once. Each
// chunk is hedged: if its first request has not answered within
// HedgeAfter, the identical chunk is sent to a second replica and the
// first arrival wins — the standard tail-at-scale defense, spending a
// bounded amount of duplicate work to cut p99 on a stalled replica.
//
// Replicas are ejected from the rotation when a request to them fails
// (connect error, handshake failure, timeout) and, optionally, when
// their mutation epoch falls more than StaleEpochSlack behind the
// freshest replica — a follower mid-resync stops serving stale answers
// through the router. Run's health loop reprobes ejected replicas with
// Ping+Epoch and restores them once they answer and have caught up.
// Because every backend answers membership with zero false negatives
// from any epoch's snapshot, routing to a slightly stale replica is
// safe; the epoch fence bounds *how* stale "slightly" may get.
//
// The router pools one wire.Client per in-flight request per replica
// (the client is synchronous and single-goroutine by design), and
// copies results out of each client's reused buffers while it still
// owns the connection.
package router

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// ErrNoReplicas is returned when every replica is ejected.
var ErrNoReplicas = errors.New("router: no healthy replicas")

// Config assembles a Router.
type Config struct {
	// Replicas are binary-listener addresses ("host:port"). Required,
	// at least one. Order fixes the hedge ring: chunk i's hedge goes to
	// the next healthy replica after its primary target.
	Replicas []string

	// HedgeAfter is how long a chunk may be outstanding before the same
	// chunk is sent to a second replica. 0 disables hedging. Default
	// 2ms — a few times the expected batch round-trip on a LAN.
	HedgeAfter time.Duration

	// RequestTimeout bounds one request round-trip; a replica that
	// exceeds it is ejected. Default 2s.
	RequestTimeout time.Duration

	// ReprobeInterval is the health loop's cadence: how often ejected
	// replicas are reprobed and healthy ones epoch-polled. Default 250ms.
	ReprobeInterval time.Duration

	// StaleEpochSlack is how many epochs a replica may trail the
	// freshest one before the health loop ejects it as stale.
	// Meaningful only while Run is active.
	StaleEpochSlack uint64

	// DisableStaleEject turns the epoch fence off: replicas are ejected
	// only on request failure.
	DisableStaleEject bool

	// MinChunk is the smallest batch slice worth fanning out; batches
	// are split into at most len(keys)/MinChunk chunks so a 10-key
	// batch doesn't pay 3 round-trips. Default 32.
	MinChunk int

	// PoolSize caps idle pooled connections per replica. Default 4.
	PoolSize int

	// Logf, when set, receives one line per ejection and restore.
	Logf func(format string, args ...any)
}

// Stats counts router activity since construction.
type Stats struct {
	Batches    uint64 // ContainsBatch calls
	Keys       uint64 // keys routed
	Hedges     uint64 // hedge requests sent
	HedgeWins  uint64 // chunks whose hedge answered first
	Ejections  uint64 // replicas removed (failures and staleness)
	StaleEject uint64 // the subset ejected by the epoch fence
	Reprobes   uint64 // successful reprobes that restored a replica
	Healthy    int    // replicas currently in rotation
}

// replica is one backend address plus its health state and conn pool.
type replica struct {
	addr    string
	healthy atomic.Bool
	epoch   atomic.Uint64

	mu   sync.Mutex
	pool []*wire.Client
}

// get returns a pooled connection or dials a fresh one.
func (rep *replica) get() (*wire.Client, error) {
	rep.mu.Lock()
	if n := len(rep.pool); n > 0 {
		c := rep.pool[n-1]
		rep.pool = rep.pool[:n-1]
		rep.mu.Unlock()
		return c, nil
	}
	rep.mu.Unlock()
	return wire.Dial(rep.addr)
}

// put returns a connection to the pool, closing it if the replica has
// been ejected meanwhile or the pool is full.
func (rep *replica) put(c *wire.Client, cap int) {
	rep.mu.Lock()
	if rep.healthy.Load() && len(rep.pool) < cap {
		rep.pool = append(rep.pool, c)
		rep.mu.Unlock()
		return
	}
	rep.mu.Unlock()
	c.Close()
}

// drain closes every pooled connection.
func (rep *replica) drain() {
	rep.mu.Lock()
	pool := rep.pool
	rep.pool = nil
	rep.mu.Unlock()
	for _, c := range pool {
		c.Close()
	}
}

// Router routes ContainsBatch calls across replicas. Safe for
// concurrent use.
type Router struct {
	cfg      Config
	replicas []*replica
	rr       atomic.Uint64 // round-robin cursor
	maxEpoch atomic.Uint64 // freshest epoch seen anywhere, for the fence

	batches    atomic.Uint64
	keys       atomic.Uint64
	hedges     atomic.Uint64
	hedgeWins  atomic.Uint64
	ejections  atomic.Uint64
	staleEject atomic.Uint64
	reprobes   atomic.Uint64
}

// New builds a Router over cfg.Replicas. Replicas start healthy and
// are dialed lazily on first use; a dead address ejects itself on the
// first request against it.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("router: at least one replica required")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if cfg.ReprobeInterval <= 0 {
		cfg.ReprobeInterval = 250 * time.Millisecond
	}
	if cfg.MinChunk <= 0 {
		cfg.MinChunk = 32
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 4
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 2 * time.Millisecond
	}
	r := &Router{cfg: cfg}
	seen := map[string]bool{}
	for _, addr := range cfg.Replicas {
		if addr == "" || seen[addr] {
			return nil, fmt.Errorf("router: empty or duplicate replica address %q", addr)
		}
		seen[addr] = true
		rep := &replica{addr: addr}
		rep.healthy.Store(true)
		r.replicas = append(r.replicas, rep)
	}
	return r, nil
}

// Close drains every replica's connection pool.
func (r *Router) Close() {
	for _, rep := range r.replicas {
		rep.drain()
	}
}

// Stats returns current counters.
func (r *Router) Stats() Stats {
	healthy := 0
	for _, rep := range r.replicas {
		if rep.healthy.Load() {
			healthy++
		}
	}
	return Stats{
		Batches:    r.batches.Load(),
		Keys:       r.keys.Load(),
		Hedges:     r.hedges.Load(),
		HedgeWins:  r.hedgeWins.Load(),
		Ejections:  r.ejections.Load(),
		StaleEject: r.staleEject.Load(),
		Reprobes:   r.reprobes.Load(),
		Healthy:    healthy,
	}
}

// Healthy returns the addresses currently in rotation.
func (r *Router) Healthy() []string {
	var out []string
	for _, rep := range r.replicas {
		if rep.healthy.Load() {
			out = append(out, rep.addr)
		}
	}
	return out
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// eject removes rep from rotation and closes its pooled connections.
func (r *Router) eject(rep *replica, stale bool, cause error) {
	if !rep.healthy.CompareAndSwap(true, false) {
		return // already out; don't double-count
	}
	r.ejections.Add(1)
	if stale {
		r.staleEject.Add(1)
	}
	rep.drain()
	r.logf("router: ejected %s: %v", rep.addr, cause)
}

// healthyReplicas snapshots the rotation.
func (r *Router) healthyReplicas() []*replica {
	out := make([]*replica, 0, len(r.replicas))
	for _, rep := range r.replicas {
		if rep.healthy.Load() {
			out = append(out, rep)
		}
	}
	return out
}

// do runs one chunk against one replica, copying results into out
// while the connection (and its reused result buffer) is still owned.
func (r *Router) do(rep *replica, keys [][]byte, out []bool) error {
	c, err := rep.get()
	if err != nil {
		return err
	}
	c.SetDeadline(time.Now().Add(r.cfg.RequestTimeout))
	vals, err := c.ContainsBatch(keys)
	if err != nil {
		c.Close()
		return err
	}
	copy(out, vals)
	c.SetDeadline(time.Time{})
	rep.put(c, r.cfg.PoolSize)
	return nil
}

// Contains answers a single key — a one-key batch through the same
// routing, hedging and ejection machinery.
func (r *Router) Contains(key []byte) (bool, error) {
	out, err := r.ContainsBatch([][]byte{key})
	if err != nil {
		return false, err
	}
	return out[0], nil
}

// ContainsBatch answers one result per key, in order, by splitting the
// batch across healthy replicas and hedging slow chunks. An error
// means no healthy replica could answer some chunk; partial results
// are never returned.
func (r *Router) ContainsBatch(keys [][]byte) ([]bool, error) {
	if len(keys) == 0 {
		return nil, errors.New("router: empty batch")
	}
	reps := r.healthyReplicas()
	if len(reps) == 0 {
		return nil, ErrNoReplicas
	}
	r.batches.Add(1)
	r.keys.Add(uint64(len(keys)))

	chunks := len(keys) / r.cfg.MinChunk
	if chunks > len(reps) {
		chunks = len(reps)
	}
	if chunks < 1 {
		chunks = 1
	}
	out := make([]bool, len(keys))
	if err := r.containsBatchInto(out, keys, reps); err != nil {
		return nil, err
	}
	return out, nil
}

// ContainsBatchInto is ContainsBatch writing into a caller-owned slice:
// dst[i] answers keys[i], and len(dst) must be at least len(keys). On
// error dst's contents are unspecified but the slice is never retained,
// and no attempt keeps writing into it after return — losing hedges
// fill pooled private buffers, never dst. Neither are keys: every
// attempt sends its own copy, so the caller may reuse them on return.
func (r *Router) ContainsBatchInto(dst []bool, keys [][]byte) error {
	if len(keys) == 0 {
		return errors.New("router: empty batch")
	}
	reps := r.healthyReplicas()
	if len(reps) == 0 {
		return ErrNoReplicas
	}
	r.batches.Add(1)
	r.keys.Add(uint64(len(keys)))
	return r.containsBatchInto(dst[:len(keys)], keys, reps)
}

func (r *Router) containsBatchInto(out []bool, keys [][]byte, reps []*replica) error {
	chunks := len(keys) / r.cfg.MinChunk
	if chunks > len(reps) {
		chunks = len(reps)
	}
	if chunks < 1 {
		chunks = 1
	}
	if chunks == 1 {
		return r.runChunk(keys, out, reps)
	}

	var wg sync.WaitGroup
	errs := make([]error, chunks)
	per := (len(keys) + chunks - 1) / chunks
	for i := 0; i < chunks; i++ {
		lo, hi := i*per, (i+1)*per
		if hi > len(keys) {
			hi = len(keys)
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			errs[i] = r.runChunk(keys[lo:hi], out[lo:hi], reps)
		}(i, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// chunkResult carries one attempt's outcome back to the race. buf is a
// pooled attempt buffer the receiver owns once the result is read.
type chunkResult struct {
	rep *replica
	buf *attemptBuf
	err error
}

// attemptBuf is one attempt's private state: a copy of its chunk's keys
// (one flat arena and the headers into it) and its result slice. An
// attempt that loses the race may still be sending or reading after
// runChunk returns, and by then the caller owns its keys and dst again,
// so the attempt touches neither.
type attemptBuf struct {
	keys  [][]byte
	arena []byte
	out   []bool
}

// load copies keys into the buffer and sizes the result slice.
func (ab *attemptBuf) load(keys [][]byte) {
	n := 0
	for _, key := range keys {
		n += len(key)
	}
	if cap(ab.arena) < n {
		ab.arena = make([]byte, 0, n)
	}
	arena := ab.arena[:0]
	ab.keys = ab.keys[:0]
	for _, key := range keys {
		lo := len(arena)
		arena = append(arena, key...)
		ab.keys = append(ab.keys, arena[lo:len(arena):len(arena)])
	}
	ab.arena = arena
	if cap(ab.out) < len(keys) {
		ab.out = make([]bool, len(keys))
	}
	ab.out = ab.out[:len(keys)]
}

// attemptBufPool recycles attempt buffers. An attempt owns its buffer
// from Get until it sends the chunkResult; after that the receiving
// runChunk owns it and puts it back. A buffer whose result is never
// received (an attempt still in flight when runChunk returns) falls to
// the GC with the buffered channel — correctness never depends on
// reclaiming it.
var attemptBufPool = sync.Pool{New: func() any { return new(attemptBuf) }}

// runChunk answers one chunk: primary attempt, hedge on the timer,
// first arrival wins, failure ejects and retries elsewhere.
func (r *Router) runChunk(keys [][]byte, out []bool, reps []*replica) error {
	primary := reps[int(r.rr.Add(1)-1)%len(reps)]
	// Each attempt copies the keys and fills a private result buffer;
	// only the winner is copied to out, so a losing hedge can never tear
	// the caller's results. The copy happens under mu unless runChunk
	// has already returned, so no attempt reads the caller's keys after
	// that.
	var mu sync.Mutex
	returned := false
	defer func() {
		mu.Lock()
		returned = true
		mu.Unlock()
	}()
	ch := make(chan chunkResult, 2)
	attempt := func(rep *replica) {
		ab := attemptBufPool.Get().(*attemptBuf)
		mu.Lock()
		if returned {
			mu.Unlock()
			attemptBufPool.Put(ab)
			return
		}
		ab.load(keys)
		mu.Unlock()
		err := r.do(rep, ab.keys, ab.out)
		ch <- chunkResult{rep, ab, err}
	}
	go attempt(primary)
	// Reclaim buffers of results that arrived but lost the race.
	defer func() {
		for {
			select {
			case res := <-ch:
				attemptBufPool.Put(res.buf)
			default:
				return
			}
		}
	}()

	var hedgeC <-chan time.Time
	if r.cfg.HedgeAfter > 0 && len(reps) > 1 {
		t := time.NewTimer(r.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	hedged := false
	outstanding := 1
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			if sec := other(reps, primary); sec != nil {
				hedged = true
				outstanding++
				r.hedges.Add(1)
				go attempt(sec)
			}
		case res := <-ch:
			outstanding--
			if res.err != nil {
				attemptBufPool.Put(res.buf)
				r.eject(res.rep, false, res.err)
				if outstanding > 0 {
					continue // the race partner may still answer
				}
				// Both attempts (or the only one) failed: one synchronous
				// retry against whatever is still healthy.
				rest := r.healthyReplicas()
				if len(rest) == 0 {
					return fmt.Errorf("%w (last error: %v)", ErrNoReplicas, res.err)
				}
				rep := rest[int(r.rr.Add(1)-1)%len(rest)]
				if err := r.do(rep, keys, out); err != nil {
					r.eject(rep, false, err)
					return fmt.Errorf("router: chunk failed on every replica tried: %w", err)
				}
				return nil
			}
			copy(out, res.buf.out)
			attemptBufPool.Put(res.buf)
			if hedged && res.rep != primary {
				r.hedgeWins.Add(1)
			}
			return nil
		}
	}
}

// other returns the next healthy replica after primary in ring order,
// or nil if primary is the only one.
func other(reps []*replica, primary *replica) *replica {
	idx := 0
	for i, rep := range reps {
		if rep == primary {
			idx = i
			break
		}
	}
	for i := 1; i < len(reps); i++ {
		rep := reps[(idx+i)%len(reps)]
		if rep != primary && rep.healthy.Load() {
			return rep
		}
	}
	return nil
}

// Run drives the health loop until ctx is done: ejected replicas are
// reprobed with Ping+Epoch and restored once they answer (and, with
// the epoch fence on, have caught up to within StaleEpochSlack of the
// freshest replica); healthy replicas are epoch-polled and ejected
// when they fall behind the fence.
func (r *Router) Run(ctx context.Context) {
	ticker := time.NewTicker(r.cfg.ReprobeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			r.healthTick()
		}
	}
}

// healthTick is one pass of Run's loop: poll, fence, reprobe.
func (r *Router) healthTick() {
	// Pass 1: poll healthy replicas' epochs and advance the high-water
	// mark. maxEpoch never goes down — a fleet-wide restart from an old
	// snapshot is an operator action, not something the fence handles.
	for _, rep := range r.replicas {
		if !rep.healthy.Load() {
			continue
		}
		epoch, err := r.probe(rep)
		if err != nil {
			r.eject(rep, false, err)
			continue
		}
		rep.epoch.Store(epoch)
		for {
			max := r.maxEpoch.Load()
			if epoch <= max || r.maxEpoch.CompareAndSwap(max, epoch) {
				break
			}
		}
	}
	max := r.maxEpoch.Load()

	// Pass 2: fence stale replicas out.
	if !r.cfg.DisableStaleEject {
		for _, rep := range r.replicas {
			if !rep.healthy.Load() {
				continue
			}
			if e := rep.epoch.Load(); max > e && max-e > r.cfg.StaleEpochSlack {
				r.eject(rep, true, fmt.Errorf("epoch %d is %d behind freshest %d", e, max-e, max))
			}
		}
	}

	// Pass 3: reprobe ejected replicas and restore the recovered ones.
	for _, rep := range r.replicas {
		if rep.healthy.Load() {
			continue
		}
		epoch, err := r.probe(rep)
		if err != nil {
			continue
		}
		if !r.cfg.DisableStaleEject && max > epoch && max-epoch > r.cfg.StaleEpochSlack {
			continue // answering, but still behind the fence
		}
		rep.epoch.Store(epoch)
		rep.healthy.Store(true)
		r.reprobes.Add(1)
		r.logf("router: restored %s at epoch %d", rep.addr, epoch)
	}
}

// probe round-trips Ping+Epoch on one (possibly fresh) connection.
func (r *Router) probe(rep *replica) (uint64, error) {
	c, err := rep.get()
	if err != nil {
		return 0, err
	}
	c.SetDeadline(time.Now().Add(r.cfg.RequestTimeout))
	if err := c.Ping(); err != nil {
		c.Close()
		return 0, err
	}
	epoch, err := c.Epoch()
	if err != nil {
		c.Close()
		return 0, err
	}
	c.SetDeadline(time.Time{})
	rep.put(c, r.cfg.PoolSize)
	return epoch, nil
}
