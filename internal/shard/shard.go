// Package shard partitions one logical filter across N independent
// shards so a filter service can use every core: shards build in
// parallel at construction, Add takes a per-shard lock instead of a
// global one, and a shard whose accuracy has drifted (too many
// post-construction Adds) is rebuilt in the background and atomically
// swapped in while the other shards keep serving.
//
// The per-shard filter is a pluggable filtercore.Backend — HABF by
// default, but any registered backend (standard Bloom, Xor, WBF, PHBF,
// ...) serves through the same routing, locking, rebuild and snapshot
// machinery. Mutable backends absorb Adds directly; static backends
// (Xor, PHBF) cannot, so the shard buffers added keys as pending —
// still answered with zero false negatives — until the existing
// rebuild-with-atomic-swap path absorbs them into a fresh filter.
//
// Every shard keeps the keys its filter is rebuilt from, and a full
// snapshot carries them, so a restored set is an ordinary set. A set
// restored from a filter-only snapshot (what replication ships) has no
// keys; it answers queries and refuses Adds with ErrReadOnly.
//
// Keys are routed by fingerprint prefix: the top bits of the shared base
// hash (hashes.Base) select the shard, so the per-shard positive and
// negative sets are disjoint and every query touches exactly one shard.
// The same base hash is handed to the backend's batch probe, where the
// hash-derived families (Bloom, Xor, PHBF, WBF) re-derive their probe
// positions from it through Mix64 dispersal — full-avalanche and
// bijective, so in-shard bit positions stay uncorrelated with the top
// bits routing consumed.
// There is one routing hash: sets built by New and sets restored from
// snapshots alike route by hashes.Base, so every batch hands backends
// the base hashes it routed with (filtercore.PreparedQuerier).
//
// Unlike a bare filter — whose Add must be externally synchronized
// against readers — a Set is safe for fully concurrent use: any number of
// goroutines may call Contains/ContainsBatch/Add with no external
// locking.
package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/filtercore"
	"repro/internal/habf"
	"repro/internal/hashes"
)

// Config sizes a sharded filter.
type Config struct {
	// Shards is the shard count; it is rounded up to a power of two.
	// Default 8.
	Shards int
	// TotalBits is the overall space budget, divided among shards in
	// proportion to their share of the positive keys. Required.
	TotalBits uint64
	// Params is the per-shard construction template. Its TotalBits field
	// is ignored (the budget comes from Config.TotalBits); its Seed is
	// perturbed per shard so shards hash independently. Non-HABF
	// backends use the fields that apply to them and ignore the rest.
	Params habf.Params
	// RebuildThreshold is the fraction of post-build Adds (relative to
	// the keys present at the last build) that triggers a background
	// rebuild of a shard. Zero means the 2% default; negative disables
	// background rebuilds.
	RebuildThreshold float64
	// Backend names the registered filtercore backend every shard is
	// built with. Empty means the default ("habf").
	Backend string
	// Tuning is the backend's knob string ("k=v,k=v"), parsed and
	// validated against the backend's tuning schema. Empty means every
	// knob at its default. Unset knobs with a non-zero Params equivalent
	// (HABF's K and CellBits) inherit from Params, so the legacy options
	// and the tuning plane describe one configuration.
	Tuning string
}

// DefaultShards is the shard count when Config.Shards is zero.
const DefaultShards = 8

// DefaultRebuildThreshold matches the "rebuild once AddedKeys reaches a
// few percent of the original set" guidance of the Add documentation.
const DefaultRebuildThreshold = 0.02

// ErrReadOnly is what Add returns on a set restored from a filter-only
// snapshot: it holds no keys, so it could never rebuild a shard.
var ErrReadOnly = errors.New("habf: read-only set (loaded from a filter-only snapshot); rebuild it from the source keys to take writes")

// minShardBits is the smallest per-shard budget; habf.New rejects
// anything under 64 bits, and a tiny shard would be all false positives.
const minShardBits = 128

// Set is a sharded filter. All methods are safe for concurrent use.
type Set struct {
	shards      []*shard
	shift       uint // route = hashes.Base(key) >> shift
	threshold   float64
	baseParams  habf.Params // construction template with the base seed
	backend     *filtercore.Factory
	tuning      filtercore.Tuning // effective knob set, reused by every (re)build
	tuningStr   string            // canonical form of tuning, cached
	readOnly    bool              // restored from a filter-only snapshot: no keys, no Adds
	bitsPerKey  float64
	scratchPool sync.Pool // *batchScratch, reused across ContainsBatchInto calls
	rebuilds    atomic.Uint64
	rebuildErrs atomic.Uint64
	rebuildWG   sync.WaitGroup
}

type shard struct {
	set *Set

	// epoch counts mutations to the shard's serving state (Add, rebuild
	// swap). Snapshot records it per frame, so a frame is a consistent
	// image of its shard "as of epoch E". Incremented under mu's write
	// side; atomic so Stats can read it lock-free.
	epoch atomic.Uint64

	// mu guards every mutable field below. Readers (Contains) take the
	// read side; Add and the rebuild swap take the write side.
	mu sync.RWMutex
	f  filtercore.Backend // nil while the shard has no positive keys
	// positives is every key the shard answers true for. It only grows,
	// by append, so a prefix taken under mu stays valid after release.
	positives [][]byte
	negatives []habf.WeightedKey
	// pending holds keys the current filter does not represent — Adds a
	// static backend refused, or keys whose lazy build failed. Queries
	// consult it after the filter, preserving zero false negatives; a
	// rebuild absorbs it. Invariant under mu: every key in positives is
	// either represented by f or present in pending.
	pending    map[string]struct{}
	baseline   int // positives[:baseline] is what f was built from
	rebuilding bool
	bitsPerKey float64
	params     habf.Params // template; TotalBits set per build
}

// New partitions positives and negatives across shards and builds every
// shard in parallel. At least one positive key is required overall;
// individual shards may come up empty and answer false until keys are
// added to them. The set keeps the key slices themselves, not copies, for
// its rebuilds; the caller must not modify them afterwards.
func New(positives [][]byte, negatives []habf.WeightedKey, cfg Config) (*Set, error) {
	if len(positives) == 0 {
		return nil, fmt.Errorf("shard: empty positive key set")
	}
	backend, err := filtercore.ByName(cfg.Backend)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	// Validate every negative up front, including those routed to shards
	// that come up empty (the backend would only see them on a later lazy
	// build, where there is no error channel back to the caller).
	for i, wk := range negatives {
		if !habf.ValidCost(wk.Cost) {
			return nil, fmt.Errorf("shard: negative key %d has invalid cost %v (want finite and >= 0)", i, wk.Cost)
		}
	}
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n)) // round up to a power of two
	}
	threshold := cfg.RebuildThreshold
	if threshold == 0 {
		threshold = DefaultRebuildThreshold
	}
	params := cfg.Params
	if params.Seed == 0 {
		params.Seed = 1
	}
	tun, err := backend.ParseTuning(cfg.Tuning)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	tun, params, err = reconcileTuning(backend, tun, params)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}

	s := &Set{
		shards:     make([]*shard, n),
		shift:      uint(64 - bits.TrailingZeros(uint(n))),
		threshold:  threshold,
		baseParams: params,
		backend:    backend,
		tuning:     tun,
		tuningStr:  tun.String(),
		bitsPerKey: float64(cfg.TotalBits) / float64(len(positives)),
	}

	// Partition by fingerprint prefix.
	posByShard := partition(positives, n, func(key []byte) uint32 { return uint32(s.route(key)) })
	negByShard := partition(negatives, n, func(wk habf.WeightedKey) uint32 { return uint32(s.route(wk.Key)) })

	bitsPerKey := s.bitsPerKey
	for i := range s.shards {
		p := params
		p.Seed = perturbSeed(params.Seed, i)
		s.shards[i] = &shard{
			set:        s,
			positives:  posByShard[i],
			negatives:  negByShard[i],
			bitsPerKey: bitsPerKey,
			params:     p,
		}
	}

	// Build every non-empty shard in parallel.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, sh := range s.shards {
		if len(sh.positives) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			f, err := sh.build(sh.positives)
			if err != nil {
				errs[i] = err
				return
			}
			sh.f = f
			sh.baseline = len(sh.positives)
		}(i, sh)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return s, nil
}

// partition groups items by shard with a stable two-pass counting sort:
// the first pass routes every item once and counts per shard, the second
// scatters into one backing array of exactly len(items). Shard id gets
// the window backing[lo:hi:hi], in input order; the capped capacity makes
// a later append to one shard reallocate instead of writing into the
// next shard's window.
func partition[T any](items []T, nshards int, route func(T) uint32) [][]T {
	ids := make([]uint32, len(items))
	starts := make([]int, nshards+1)
	for i, it := range items {
		id := route(it)
		ids[i] = id
		starts[id+1]++
	}
	for id := 0; id < nshards; id++ {
		starts[id+1] += starts[id]
	}
	backing := make([]T, len(items))
	fill := make([]int, nshards)
	copy(fill, starts)
	for i, it := range items {
		id := ids[i]
		backing[fill[id]] = it
		fill[id]++
	}
	out := make([][]T, nshards)
	for id := range out {
		lo, hi := starts[id], starts[id+1]
		out[id] = backing[lo:hi:hi]
	}
	return out
}

// reconcileTuning makes the legacy HABF Params toggles and the tuning
// knobs describe one configuration: a Params field set through WithK or
// WithCellBits is folded into an unset tuning knob (so snapshots, stats
// and rebuilds report and reuse it), and a set knob is written back into
// the Params template (so construction and validation see it). An
// explicitly set knob wins over the option. Non-HABF backends pass
// through untouched.
func reconcileTuning(backend *filtercore.Factory, tun filtercore.Tuning, p habf.Params) (filtercore.Tuning, habf.Params, error) {
	if backend.Name != filtercore.DefaultBackend {
		return tun, p, nil
	}
	var err error
	if k := tun.Int("k"); k != 0 {
		p.K = k
	} else if p.K != 0 {
		if tun, err = tun.With("k", fmt.Sprint(p.K)); err != nil {
			return tun, p, err
		}
	}
	if cb := tun.Int("cellbits"); cb != 0 {
		p.CellBits = uint(cb)
	} else if p.CellBits != 0 {
		if tun, err = tun.With("cellbits", fmt.Sprint(p.CellBits)); err != nil {
			return tun, p, err
		}
	}
	return tun, p, nil
}

// perturbSeed derives a per-shard seed that is deterministic in the base
// seed but decorrelated across shards (and never the zero value that
// Params would re-default).
func perturbSeed(base int64, i int) int64 {
	seed := int64(hashes.Mix64(uint64(base) ^ uint64(i+1)*0x9e3779b97f4a7c15))
	if seed == 0 {
		seed = 1
	}
	return seed
}

// route returns the shard index for a key: the top log2(N) bits of its
// base hash.
func (s *Set) route(key []byte) int {
	return int(hashes.Base(key) >> s.shift)
}

// build constructs the shard's filter over the given keys with a budget
// proportional to the key count.
func (sh *shard) build(keys [][]byte) (filtercore.Backend, error) {
	totalBits := uint64(sh.bitsPerKey * float64(len(keys)))
	if totalBits < minShardBits {
		totalBits = minShardBits
	}
	return sh.set.backend.Build(keys, sh.negatives, filtercore.BuildConfig{
		TotalBits: totalBits,
		Params:    sh.params,
		Tuning:    sh.set.tuning,
	})
}

// addPending records a key the filter does not represent, under mu's
// write side.
func (sh *shard) addPending(key []byte) {
	if sh.pending == nil {
		sh.pending = make(map[string]struct{})
	}
	sh.pending[string(key)] = struct{}{}
}

// hasPending reports (under either lock side) whether key is buffered.
func (sh *shard) hasPending(key []byte) bool {
	if sh.pending == nil {
		return false
	}
	_, ok := sh.pending[string(key)]
	return ok
}

// drift counts post-build Adds not yet folded into a rebuild: keys a
// mutable filter absorbed degraded or a static one left pending.
func (sh *shard) drift() uint64 {
	return uint64(len(sh.positives) - sh.baseline)
}

// Contains reports whether key may be a member. Safe for any number of
// concurrent callers, including concurrent Adds.
func (s *Set) Contains(key []byte) bool {
	sh := s.shards[s.route(key)]
	sh.mu.RLock()
	ok := sh.f != nil && sh.f.Contains(key) || sh.hasPending(key)
	sh.mu.RUnlock()
	return ok
}

// ContainsBatch answers one result per key, in order. It is
// ContainsBatchInto with a freshly allocated result slice; batch callers
// that care about steady-state allocations should pool the destination
// and call ContainsBatchInto directly.
func (s *Set) ContainsBatch(keys [][]byte) []bool {
	out := make([]bool, len(keys))
	s.ContainsBatchInto(out, keys)
	return out
}

// batchScratch is the pooled per-batch working set of ContainsBatchInto.
// Ownership rule: a scratch belongs to exactly one batch call from Get to
// Put. Key references are cleared before Put so the pool never pins caller
// memory.
type batchScratch struct {
	hashes  []uint64 // base hash per key index
	starts  []int32  // per-shard slot ranges: shard id covers [starts[id], starts[id+1])
	fill    []int32  // gather cursors, starts[:nshards] copied then advanced
	perm    []int32  // slot -> original key index
	gkeys   [][]byte // keys grouped by shard, slot-indexed
	ghashes []uint64 // base hashes grouped by shard, slot-indexed
	results []bool   // per-slot answers, scattered to dst via perm
}

// getScratch returns a pooled scratch sized for n keys.
func (s *Set) getScratch(n int) *batchScratch {
	sc, _ := s.scratchPool.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{}
	}
	if cap(sc.hashes) < n {
		sc.hashes = make([]uint64, n)
		sc.ghashes = make([]uint64, n)
		sc.gkeys = make([][]byte, n)
		sc.perm = make([]int32, n)
		sc.results = make([]bool, n)
	}
	sc.hashes = sc.hashes[:n]
	sc.ghashes = sc.ghashes[:n]
	sc.gkeys = sc.gkeys[:n]
	sc.perm = sc.perm[:n]
	sc.results = sc.results[:n]
	nsh := len(s.shards)
	if len(sc.starts) != nsh+1 {
		sc.starts = make([]int32, nsh+1)
		sc.fill = make([]int32, nsh)
	}
	clear(sc.starts)
	return sc
}

// putScratch returns a scratch to the pool, dropping every reference to
// caller keys so pooling never extends their lifetime.
func (s *Set) putScratch(sc *batchScratch) {
	clear(sc.gkeys)
	s.scratchPool.Put(sc)
}

// ContainsBatchInto writes Contains(keys[i]) into dst[i] for every key.
// dst must have at least len(keys) elements; extra elements are left
// untouched. Steady state allocates nothing: the grouping scratch is
// pooled per Set.
//
// The pipeline hashes each key exactly once (hashes.Base doubles as the
// routing fingerprint and, for hash-derived backends, the probe-position
// source), groups keys by destination shard with a counting sort, and
// answers the per-shard sub-batches on the calling goroutine, in shard
// order. It holds exactly one shard read lock at a time — same as Add and
// the rebuild swap on the write side — so the lock graph stays trivially
// acyclic and writers are delayed by at most one sub-batch. Each
// sub-batch walks one shard's memory start to finish.
//
// Concurrency comes from the callers: one batch uses one core. A caller
// that wants a large batch answered on several cores splits it and issues
// the pieces from separate goroutines.
func (s *Set) ContainsBatchInto(dst []bool, keys [][]byte) {
	n := len(keys)
	if n == 0 {
		return
	}
	if n > 1<<30 {
		// Larger batches would overflow the int32 slot indices. Route
		// individually.
		for i, key := range keys {
			dst[i] = s.Contains(key)
		}
		return
	}
	sc := s.getScratch(n)

	// Pass 1: hash every key once; count keys per shard in starts[id+1].
	shift := s.shift
	for i, key := range keys {
		h := hashes.Base(key)
		sc.hashes[i] = h
		sc.starts[(h>>shift)+1]++
	}

	// Prefix-sum the counts into slot ranges.
	for id := range s.shards {
		sc.starts[id+1] += sc.starts[id]
		sc.fill[id] = sc.starts[id]
	}

	// Pass 2: gather keys and hashes into shard-contiguous slots.
	for i, key := range keys {
		id := sc.hashes[i] >> shift
		slot := sc.fill[id]
		sc.fill[id] = slot + 1
		sc.gkeys[slot] = key
		sc.ghashes[slot] = sc.hashes[i]
		sc.perm[slot] = int32(i)
	}

	// Answer each non-empty shard's sub-batch in turn.
	for id, sh := range s.shards {
		if lo, hi := int(sc.starts[id]), int(sc.starts[id+1]); lo < hi {
			sh.containsSub(sc, dst, lo, hi)
		}
	}
	s.putScratch(sc)
}

// containsSub answers one shard's slice of the batch under a single read
// lock: the backend's batch probe with the slice's base hashes first,
// then the pending overlay for the misses — the same filter → pending
// order as Contains — and finally the scatter back to dst through the
// slot permutation.
func (sh *shard) containsSub(sc *batchScratch, dst []bool, lo, hi int) {
	keys := sc.gkeys[lo:hi]
	res := sc.results[lo:hi]
	sh.mu.RLock()
	if sh.f != nil {
		sh.f.ContainsBatchInto(res, keys, sc.ghashes[lo:hi])
	} else {
		clear(res) // scratch may hold a previous batch's answers
	}
	if len(sh.pending) > 0 {
		for i, ok := range res {
			if !ok {
				_, res[i] = sh.pending[string(keys[i])]
			}
		}
	}
	sh.mu.RUnlock()
	for i := lo; i < hi; i++ {
		dst[sc.perm[i]] = sc.results[i]
	}
}

// Add inserts a key. It takes only the owning shard's lock; queries to
// other shards proceed untouched, and once the shard's post-build Adds
// exceed the rebuild threshold a background rebuild is kicked off. A
// static backend's filter cannot absorb the key directly; it is buffered
// as pending — queryable immediately, zero false negatives — until the
// rebuild swap folds it in. The shard keeps a copy of key for its
// rebuilds, so the caller may reuse the slice as soon as Add returns.
// On a read-only set Add returns ErrReadOnly and changes nothing.
func (s *Set) Add(key []byte) error {
	if s.readOnly {
		return ErrReadOnly
	}
	key = bytes.Clone(key)
	sh := s.shards[s.route(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.positives = append(sh.positives, key)
	sh.epoch.Add(1)
	if sh.f == nil {
		// First key(s) ever routed here: build inline over everything
		// accumulated so far (rare, tiny). If construction fails (it
		// cannot for HABF — params and costs were validated up front —
		// but a static backend can refuse, e.g. Xor on duplicates), the
		// key is buffered as pending so it still answers true, and the
		// next Add retries with the full list.
		if f, err := sh.build(sh.positives); err == nil {
			sh.f = f
			sh.baseline = len(sh.positives)
			sh.pending = nil
		} else {
			s.rebuildErrs.Add(1)
			sh.addPending(key)
		}
		return nil
	}
	if err := sh.f.Add(key); err != nil {
		// Static backend: serve the key from the pending buffer — unless
		// the filter already answers true for it (a re-Add of an existing
		// member, or a false-positive collision), where pending would add
		// only drift and rebuild churn. Either way the key is in
		// positives, so the next rebuild represents it directly and the
		// answer stays true forever.
		if !sh.f.Contains(key) {
			sh.addPending(key)
		}
	}
	sh.maybeRebuild()
	return nil
}

// maybeRebuild starts a background rebuild once the shard's drift
// reaches the threshold and none is in flight. Callers hold mu's write
// side.
func (sh *shard) maybeRebuild() {
	s := sh.set
	if s.threshold > 0 && !sh.rebuilding &&
		float64(sh.drift()) >= s.threshold*float64(sh.baseline) {
		sh.rebuilding = true
		s.rebuildWG.Add(1)
		go sh.rebuild()
	}
}

// rebuild reconstructs the shard's filter over its full current key set —
// re-running the optimization that per-key Add cannot, and absorbing any
// pending keys a static backend buffered — and swaps it in. Construction
// happens outside the lock; only the final swap (plus a replay of keys
// added mid-rebuild) blocks the shard's readers. If the keys added
// mid-rebuild already reach the threshold, the next rebuild starts at
// once rather than waiting for another Add.
func (sh *shard) rebuild() {
	defer sh.set.rebuildWG.Done()

	sh.mu.RLock()
	n0 := len(sh.positives)
	// Three-index slice: appends by concurrent Adds reallocate instead of
	// writing into the snapshot's backing array.
	snap := sh.positives[:n0:n0]
	sh.mu.RUnlock()

	f, err := sh.build(snap)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.rebuilding = false
	if err != nil {
		sh.set.rebuildErrs.Add(1)
		return
	}
	sh.swap(f, n0)
	sh.set.rebuilds.Add(1)
	sh.maybeRebuild()
}

// swap installs a filter built over positives[:built], replaying the
// keys added since: a mutable backend absorbs them, a static one leaves
// those it does not already answer true for pending. Callers hold mu's
// write side.
func (sh *shard) swap(f filtercore.Backend, built int) {
	sh.pending = nil
	for _, key := range sh.positives[built:] { // added while we were building
		if f.Add(key) != nil && !f.Contains(key) {
			sh.addPending(key)
		}
	}
	sh.f = f
	sh.baseline = built
	sh.epoch.Add(1)
}

// WaitRebuilds blocks until every background rebuild in flight at call
// time (and any they cascade into) has finished. Intended for tests and
// orderly shutdown.
func (s *Set) WaitRebuilds() { s.rebuildWG.Wait() }

// NumShards returns the shard count.
func (s *Set) NumShards() int { return len(s.shards) }

// Epoch returns the set's mutation epoch: the sum of every shard's
// per-shard epoch. Each Add and rebuild swap bumps its shard's counter,
// so the sum is monotone under serving traffic and two observations are
// equal only if no mutation landed between them — which is exactly the
// freshness signal replication needs. A restored set resumes at the
// epochs recorded in its snapshot frames.
func (s *Set) Epoch() uint64 {
	var total uint64
	for _, sh := range s.shards {
		total += sh.epoch.Load()
	}
	return total
}

// Backend returns the registry name of the backend every shard uses.
func (s *Set) Backend() string { return s.backend.Name }

// Tuning returns the effective knob set in canonical form — every knob
// of the backend's schema with its explicit or default value, sorted,
// "k=v,k=v". It is what snapshots persist and /v1/stats reports.
func (s *Set) Tuning() string { return s.tuningStr }

// Name identifies the filter in experiment output, e.g. "Sharded[8×HABF]".
func (s *Set) Name() string {
	return fmt.Sprintf("Sharded[%d×%s]", len(s.shards), s.backend.InnerName(s.baseParams))
}

// SizeBits returns the summed query-time footprint of every shard.
func (s *Set) SizeBits() uint64 {
	var total uint64
	for _, sh := range s.shards {
		sh.mu.RLock()
		if sh.f != nil {
			total += sh.f.SizeBits()
		}
		sh.mu.RUnlock()
	}
	return total
}

// Stats is a point-in-time summary across shards.
type Stats struct {
	Shards        int
	Keys          uint64 // total positive keys currently represented
	Added         uint64 // Adds not yet folded into a rebuild (incl. pending)
	Pending       uint64 // Adds a static backend buffered outside its filter
	Rebuilds      uint64 // background rebuilds completed
	RebuildErrors uint64
	SizeBits      uint64
	// ReadOnly reports a set restored from a filter-only snapshot: it
	// holds no keys (Keys is 0) and its Add returns ErrReadOnly.
	ReadOnly bool
}

// ShardInfo describes one shard at a point in time — the per-shard
// detail behind Stats, for operational surfaces (a serving daemon's
// stats endpoint) that want to see routing balance and drift per shard.
type ShardInfo struct {
	ID         int    `json:"id"`
	Keys       int    `json:"keys"`       // positive keys represented
	Added      uint64 `json:"added"`      // Adds not yet folded into a rebuild
	Pending    uint64 `json:"pending"`    // static-backend Adds served from the pending buffer
	Epoch      uint64 `json:"epoch"`      // mutation epoch (Adds + rebuild swaps)
	SizeBits   uint64 `json:"size_bits"`  // query-time footprint
	Rebuilding bool   `json:"rebuilding"` // background rebuild in flight
}

// ShardInfos samples every shard, one at a time (totals are approximate
// under concurrent writes, like Stats).
func (s *Set) ShardInfos() []ShardInfo {
	out := make([]ShardInfo, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		info := ShardInfo{
			ID:         i,
			Keys:       len(sh.positives),
			Added:      sh.drift(),
			Pending:    uint64(len(sh.pending)),
			Epoch:      sh.epoch.Load(),
			Rebuilding: sh.rebuilding,
		}
		if sh.f != nil {
			info.SizeBits = sh.f.SizeBits()
		}
		sh.mu.RUnlock()
		out[i] = info
	}
	return out
}

// Stats snapshots the set. Shards are sampled one at a time, so totals
// are approximate under concurrent writes.
func (s *Set) Stats() Stats {
	st := Stats{
		Shards:        len(s.shards),
		Rebuilds:      s.rebuilds.Load(),
		RebuildErrors: s.rebuildErrs.Load(),
		ReadOnly:      s.readOnly,
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		st.Keys += uint64(len(sh.positives))
		st.Added += sh.drift()
		st.Pending += uint64(len(sh.pending))
		if sh.f != nil {
			st.SizeBits += sh.f.SizeBits()
		}
		sh.mu.RUnlock()
	}
	return st
}
