package shard

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"

	"repro/internal/filtercore"
	"repro/internal/habf"
	"repro/internal/hashes"
	"repro/internal/snapshot"
)

// Snapshot captures the set's serving state as a container (see
// internal/snapshot): one checksummed frame per shard wrapping the
// shard filter's wire format, stamped with the shard's mutation epoch.
// The container header records the backend kind, so Restore dispatches
// to the right decoder — a file written by one backend fed to another
// fails loudly instead of misdecoding frames.
//
// Snapshot coexists with live traffic: each shard is marshaled under its
// read lock, so concurrent readers are never blocked anywhere, writers
// stall only on the one shard currently being framed (for the length of
// one memcpy-speed marshal), and an in-flight background rebuild simply
// lands before or after that shard's frame. Every frame is therefore an
// atomic image of its shard at the recorded epoch, and the snapshot
// contains every key whose Add returned before Snapshot began; keys
// added concurrently with Snapshot land in the frames written after
// their shard's marshal and may or may not be captured.
//
// A static-backend shard holding pending keys (Adds its filter could
// not absorb) is rebuilt synchronously before framing, so the acked-Add
// durability contract holds for static backends too; that one shard's
// writers stall for the rebuild. A *restored* static shard with pending
// keys cannot be rebuilt (its pre-snapshot key list is not in memory);
// its pending keys ride the container's pending-keys frame instead, and
// a restore re-buffers them — acked Adds stay durable across any number
// of save/restore cycles without ever rebuilding.
func (s *Set) Snapshot() (*snapshot.Snapshot, error) {
	snap := &snapshot.Snapshot{
		Meta:    s.snapshotMeta(),
		Frames:  make([]snapshot.Frame, len(s.shards)),
		Pending: s.collectRestoredPending(),
	}
	for i := range s.shards {
		fr, err := s.marshalShard(i)
		if err != nil {
			return nil, err
		}
		snap.Frames[i] = fr
	}
	return snap, nil
}

// WriteSnapshot streams a snapshot to w one shard at a time, so peak
// memory overhead is bounded by the largest single shard's wire size
// rather than the whole set's — the form Save uses for multi-GB filters.
// Concurrency semantics are identical to Snapshot.
func (s *Set) WriteSnapshot(w io.Writer) error {
	// Collect pending keys of restored shards before framing: every key
	// whose Add was acked before WriteSnapshot began is then captured
	// either here or (absorbed) in its shard's frame. The header flags
	// the section, so the decision has to precede the first byte out.
	pending := s.collectRestoredPending()
	meta := s.snapshotMeta()
	meta.HasPending = len(pending) > 0
	sw, err := snapshot.NewWriter(w, meta, len(s.shards))
	if err != nil {
		return err
	}
	for i := range s.shards {
		fr, err := s.marshalShard(i)
		if err != nil {
			return err
		}
		if err := sw.WriteFrame(fr); err != nil {
			return err
		}
	}
	if meta.Tuning != "" {
		if err := sw.WriteTuning(meta.Tuning); err != nil {
			return err
		}
	}
	if meta.HasPending {
		if err := sw.WritePending(pending); err != nil {
			return err
		}
	}
	return sw.Close()
}

// collectRestoredPending gathers the keys a restored shard's frozen
// filter does not represent — the ones absorbPending cannot fold into a
// frame (no key list to rebuild from) — in sorted deduped order, so
// identical sets serialize to identical containers. A restored shard
// that absorbed its pending map into a sidecar contributes its full
// post-restore positives instead (the sidecar itself is probabilistic
// state and never serializes); shards still carrying a pending map
// contribute their positives too, a superset of the map that stays
// stable across absorb timing. Non-restored shards are skipped: their
// pending keys are absorbed into their frames by marshalShard.
func (s *Set) collectRestoredPending() [][]byte {
	var out [][]byte
	seen := make(map[string]struct{})
	for _, sh := range s.shards {
		sh.mu.RLock()
		if sh.restored && (len(sh.pending) > 0 || sh.sidecar != nil) {
			for _, key := range sh.positives {
				if _, dup := seen[string(key)]; !dup {
					seen[string(key)] = struct{}{}
					out = append(out, key)
				}
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(a, b int) bool { return string(out[a]) < string(out[b]) })
	return out
}

// nonDefaultTuning returns the set's canonical tuning string, or "" when
// every knob is at its default — the form the container persists, so a
// default-tuned set writes no tuning frame and stays byte-identical to
// pre-tuning files.
func (s *Set) nonDefaultTuning() string {
	if s.tuningStr == s.backend.DefaultTuning().String() {
		return ""
	}
	return s.tuningStr
}

func (s *Set) snapshotMeta() snapshot.Meta {
	return snapshot.Meta{
		Tuning:                s.nonDefaultTuning(),
		Kind:                  snapshot.KindShardedSet,
		Backend:               uint8(s.backend.Kind),
		BaseSeed:              s.baseParams.Seed,
		RouteSeed:             hashes.BaseSeed,
		K:                     s.baseParams.K,
		CellBits:              s.baseParams.CellBits,
		Fast:                  s.baseParams.Fast,
		DisableGamma:          s.baseParams.DisableGamma,
		DisableOverlapRanking: s.baseParams.DisableOverlapRanking,
		DisableCostOrdering:   s.baseParams.DisableCostOrdering,
		SpaceRatio:            s.baseParams.SpaceRatio,
		BitsPerKey:            s.bitsPerKey,
		Threshold:             s.threshold,
	}
}

// marshalShard frames shard i under its read lock, after absorbing any
// pending keys so the frame captures every acked Add.
func (s *Set) marshalShard(i int) (snapshot.Frame, error) {
	sh := s.shards[i]
	if err := sh.absorbPending(); err != nil {
		return snapshot.Frame{}, fmt.Errorf("shard %d: %w", i, err)
	}
	sh.mu.RLock()
	fr := snapshot.Frame{Epoch: sh.epoch.Load()}
	var err error
	if sh.f != nil {
		fr.Payload, err = sh.f.MarshalBinary()
		fr.Align = sh.f.WireAlignOffset()
	}
	sh.mu.RUnlock()
	if err != nil {
		return snapshot.Frame{}, fmt.Errorf("shard %d: %w", i, err)
	}
	return fr, nil
}

// absorbPending folds a static backend's pending keys into a freshly
// built filter so a snapshot frame represents them. Holding addMu
// freezes the key set — writers queue, readers keep serving under mu's
// read side — so one build outside mu absorbs everything, and only the
// final swap takes the write lock (readers stall for a pointer swap,
// never a build).
func (sh *shard) absorbPending() error {
	sh.mu.RLock()
	n := len(sh.pending)
	restored := sh.restored
	sh.mu.RUnlock()
	if n == 0 {
		return nil
	}
	if restored {
		// No key list to rebuild from; the shard's pending keys were
		// captured in the container's pending-keys frame instead (see
		// collectRestoredPending), so the frame images the filter as-is.
		return nil
	}

	sh.addMu.Lock()
	defer sh.addMu.Unlock()
	sh.mu.RLock()
	if len(sh.pending) == 0 { // a racing Add's rebuild beat us to it
		sh.mu.RUnlock()
		return nil
	}
	n0 := len(sh.positives)
	keys := sh.positives[:n0:n0]
	sh.mu.RUnlock()
	// positives cannot grow here: every Add holds addMu. A background
	// rebuild may still swap concurrently, but ours is built from the
	// full frozen key list and lands last (a rebuild completing after us
	// sees builds advanced and discards itself).
	f, err := sh.build(keys)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	sh.swap(f, n0) // replay loop is empty: the key set was frozen
	sh.mu.Unlock()
	return nil
}

// Restore rebuilds a Set from a decoded snapshot without copying filter
// payloads: every shard filter is decoded in borrow mode — dispatched
// through the filtercore registry by the backend kind recorded in the
// container header — and serves queries directly from the snapshot's
// backing buffer, so the caller must keep that buffer alive and
// unmodified for the life of the Set. A post-restore Add copies the
// touched shard's arrays before mutating them (copy-on-first-write);
// the buffer itself is never written.
//
// Restored shards accept Adds but do not auto-rebuild on drift — the key
// list behind a restored filter is not in memory, so a drift rebuild
// would forget it. Shards that were empty at save time behave exactly
// like freshly built ones.
func Restore(snap *snapshot.Snapshot) (*Set, error) {
	if snap.Meta.Kind != snapshot.KindShardedSet {
		return nil, fmt.Errorf("shard: container kind %d is not a sharded-set snapshot", snap.Meta.Kind)
	}
	backend, err := filtercore.ByKind(filtercore.Kind(snap.Meta.Backend))
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	n := len(snap.Frames)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("shard: snapshot shard count %d is not a power of two", n)
	}
	// Keys route by hashes.Base alone. A container recording another route
	// seed placed its keys in other shards; rebuild it from the source keys.
	if snap.Meta.RouteSeed != hashes.BaseSeed {
		return nil, fmt.Errorf("shard: snapshot route seed %#x is not the base hash seed %#x", snap.Meta.RouteSeed, hashes.BaseSeed)
	}
	// The container CRC catches bit-rot, not a hostile writer: the float
	// meta fields feed size computations on the lazy-build path (an Add
	// routed to an empty restored shard), where an absurd BitsPerKey
	// would turn into a make() of 2^60+ words. Bound them here so a
	// crafted snapshot fails loudly at Restore, never panics later.
	const maxBitsPerKey = 1 << 20 // 128 KiB per key is already absurd
	if m := snap.Meta; math.IsNaN(m.BitsPerKey) || m.BitsPerKey < 0 || m.BitsPerKey > maxBitsPerKey {
		return nil, fmt.Errorf("shard: snapshot bits-per-key %v out of range [0,%d]", m.BitsPerKey, int(maxBitsPerKey))
	} else if m.SpaceRatio != 0 && !(m.SpaceRatio > 0 && m.SpaceRatio < 1) {
		// NaN fails both comparisons and lands here too.
		return nil, fmt.Errorf("shard: snapshot space ratio %v out of range (0,1)", m.SpaceRatio)
	} else if math.IsNaN(m.Threshold) || math.IsInf(m.Threshold, 0) {
		return nil, fmt.Errorf("shard: snapshot rebuild threshold %v is not finite", m.Threshold)
	}
	base := habf.Params{
		K:                     snap.Meta.K,
		CellBits:              snap.Meta.CellBits,
		Seed:                  snap.Meta.BaseSeed,
		SpaceRatio:            snap.Meta.SpaceRatio,
		Fast:                  snap.Meta.Fast,
		DisableGamma:          snap.Meta.DisableGamma,
		DisableOverlapRanking: snap.Meta.DisableOverlapRanking,
		DisableCostOrdering:   snap.Meta.DisableCostOrdering,
	}
	if base.Seed == 0 {
		base.Seed = 1
	}
	// The tuning frame is hostile input like the floats above: parse it
	// against the backend's schema so unknown knobs and out-of-bounds
	// values fail loudly here, and insist on the canonical rendering —
	// a Writer only ever emits canonical strings, and accepting variants
	// would break the save-after-load byte-identity guarantee.
	tun, err := backend.ParseTuning(snap.Meta.Tuning)
	if err != nil {
		return nil, fmt.Errorf("shard: snapshot tuning: %w", err)
	}
	if snap.Meta.Tuning != "" && tun.String() != snap.Meta.Tuning {
		return nil, fmt.Errorf("shard: snapshot tuning %q is not canonical (want %q)", snap.Meta.Tuning, tun.String())
	}
	tun, base, err = reconcileTuning(backend, tun, base)
	if err != nil {
		return nil, fmt.Errorf("shard: snapshot tuning: %w", err)
	}
	// Same trust boundary as the float bounds above: K and CellBits feed
	// the lazy-build path, where a build failure has no error channel
	// back to the caller (the Add would land in the pending buffer
	// forever). Reject the template — with any tuned overrides folded in
	// — here instead.
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("shard: snapshot params: %w", err)
	}
	s := &Set{
		shards:      make([]*shard, n),
		shift:       uint(64 - bits.TrailingZeros(uint(n))),
		threshold:   snap.Meta.Threshold,
		baseParams:  base,
		backend:     backend,
		tuning:      tun,
		tuningStr:   tun.String(),
		absorbEvery: tun.Int("absorb"),
		bitsPerKey:  snap.Meta.BitsPerKey,
	}
	for i, fr := range snap.Frames {
		p := base
		p.Seed = perturbSeed(base.Seed, i)
		sh := &shard{
			set:        s,
			bitsPerKey: snap.Meta.BitsPerKey,
			params:     p,
		}
		if len(fr.Payload) > 0 {
			f, err := backend.UnmarshalBorrow(fr.Payload)
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			sh.f = f
			sh.restored = true
		}
		sh.epoch.Store(fr.Epoch)
		s.shards[i] = sh
	}
	// Re-buffer the container's pending keys: Adds a restored static set
	// acked but whose frozen filters never absorbed. Each key goes back
	// to the shard it routes to — into positives (so a later inline or
	// full rebuild represents it) and, when the shard's filter does not
	// already answer true, into the pending map (so queries do; a filter
	// that answers true now answers true forever, static filters being
	// immutable). A mutable backend absorbs the key directly instead.
	for _, key := range snap.Pending {
		key := append([]byte(nil), key...) // Pending aliases the container buffer
		sh := s.shards[s.route(key)]
		sh.positives = append(sh.positives, key)
		if sh.f == nil {
			sh.addPending(key)
			continue
		}
		if err := sh.f.Add(key); err != nil && !sh.f.Contains(key) {
			sh.addPending(key)
		}
	}
	// Re-buffered pending maps already past the absorb threshold fold
	// into a sidecar right away, instead of waiting for the next Add to
	// notice — a set that crossed the knob before saving comes back
	// bounded.
	if s.absorbEvery > 0 {
		for _, sh := range s.shards {
			if !sh.restored || len(sh.pending) < s.absorbEvery {
				continue
			}
			side, err := s.buildSidecar(sh.positives)
			if err != nil {
				return nil, fmt.Errorf("shard: absorb pending: %w", err)
			}
			sh.sidecar = side
			sh.pending = nil
			s.absorbs.Add(1)
		}
	}
	return s, nil
}
