package shard

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"

	"repro/internal/filtercore"
	"repro/internal/hashes"
	"repro/internal/snapshot"
)

// WriteSnapshot streams the set's serving state to w as a container
// (see internal/snapshot): one checksummed frame per shard wrapping the
// shard filter's wire format, stamped with the shard's mutation epoch.
// The container header records the backend kind, so Restore dispatches
// to the right decoder — a file written by one backend fed to another
// fails loudly instead of misdecoding frames.
//
// With withKeys set the container is full: one keys frame per shard
// follows, holding the shard's positives, its negatives and costs, and
// how many positives its filter was built from, so Restore brings back
// an ordinary set that rebuilds on drift. Without it the container is
// filter-only, the form replication ships: its frames hold only the
// filters, plus a pending-keys frame when a static backend holds acked
// Adds its filter does not represent yet, and it restores read-only. A
// read-only set has no keys to write, so it always writes the
// filter-only form, whatever withKeys asks: its save restores read-only
// again, with its pending keys, instead of as a writable set whose
// first rebuild would drop every member it cannot see.
//
// WriteSnapshot coexists with live traffic: each shard's filter,
// epoch, baseline and key prefix (or pending keys) are taken under its
// read lock, so concurrent readers are never blocked, writers stall
// only on the shard being captured, and an in-flight background rebuild
// lands before or after that capture. Every frame is therefore an
// atomic image of its shard at the recorded epoch, and the container
// holds every key whose Add returned before WriteSnapshot began. Keys
// frames are encoded after the lock is released (the positives are
// append-only), so peak memory is one shard's wire size plus one
// shard's key frame, not the set's.
func (s *Set) WriteSnapshot(w io.Writer, withKeys bool) error {
	withKeys = withKeys && !s.readOnly
	// The header flags the pending frame, so the decision precedes the
	// first byte out. A key pending when the save begins is either still
	// pending at its shard's capture or represented by a rebuilt filter
	// there; if none is, the frame is written empty.
	pending := !withKeys && s.anyPending()
	return snapshot.Encode(w, s.snapshotMeta(), len(s.shards), withKeys, pending, func(i int) (snapshot.Shard, error) {
		sh := s.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		out := snapshot.Shard{Frame: snapshot.Frame{Epoch: sh.epoch.Load()}}
		if sh.f != nil {
			var err error
			if out.Frame.Payload, err = sh.f.MarshalBinary(); err != nil {
				return out, fmt.Errorf("shard %d: %w", i, err)
			}
			out.Frame.Align = sh.f.WireAlignOffset()
		}
		if withKeys {
			n := len(sh.positives)
			out.Keys = snapshot.Keys{Positives: sh.positives[:n:n], Negatives: sh.negatives, Baseline: sh.baseline}
		} else if pending {
			for key := range sh.pending {
				out.Pending = append(out.Pending, []byte(key))
			}
		}
		return out, nil
	})
}

// anyPending reports whether any shard buffers keys its filter does not
// represent.
func (s *Set) anyPending() bool {
	for _, sh := range s.shards {
		sh.mu.RLock()
		n := len(sh.pending)
		sh.mu.RUnlock()
		if n > 0 {
			return true
		}
	}
	return false
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
		Tuning:     s.nonDefaultTuning(),
		Backend:    uint8(s.backend.Kind),
		RouteSeed:  hashes.BaseSeed,
		Template:   s.baseParams,
		BitsPerKey: s.bitsPerKey,
		Threshold:  s.threshold,
	}
}

// Restore rebuilds a Set from a decoded snapshot without copying filter
// payloads or keys: every shard filter is decoded zero-copy —
// dispatched through the filtercore registry by the backend kind
// recorded in the container header — and serves queries directly from
// the snapshot's backing buffer, and the keys alias it too, so the
// caller must keep that buffer alive and unmodified for the life of the
// Set. A post-restore Add copies the touched shard's arrays before
// mutating them (copy-on-first-write); the buffer itself is never
// written.
//
// A full container restores an ordinary set: each shard gets its key
// lists back, recomputes its pending map as the positives past its
// baseline that the filter does not answer true for, and rebuilds on
// drift like a built shard. A filter-only container restores a
// read-only set whose Add returns ErrReadOnly; its pending-keys frame,
// if any, goes back into the pending maps so those keys answer true.
func Restore(snap *snapshot.Snapshot) (*Set, error) {
	backend, err := filtercore.ByKind(filtercore.Kind(snap.Meta.Backend))
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	n := len(snap.Frames)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("shard: snapshot shard count %d is not a power of two", n)
	}
	if snap.Keys != nil && len(snap.Keys) != n {
		return nil, fmt.Errorf("shard: snapshot has %d keys frames for %d shards", len(snap.Keys), n)
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
	} else if r := m.Template.SpaceRatio; r != 0 && !(r > 0 && r < 1) {
		// NaN fails both comparisons and lands here too.
		return nil, fmt.Errorf("shard: snapshot space ratio %v out of range (0,1)", r)
	} else if math.IsNaN(m.Threshold) || math.IsInf(m.Threshold, 0) {
		return nil, fmt.Errorf("shard: snapshot rebuild threshold %v is not finite", m.Threshold)
	}
	base := snap.Meta.Template
	if base.Seed == 0 {
		base.Seed = 1
	}
	// The tuning frame is hostile input like the floats above: parse it
	// against the backend's schema so unknown knobs and out-of-bounds
	// values fail loudly here, and insist on the canonical rendering —
	// Encode only ever gets canonical strings, and accepting variants
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
		shards:     make([]*shard, n),
		shift:      uint(64 - bits.TrailingZeros(uint(n))),
		threshold:  snap.Meta.Threshold,
		baseParams: base,
		backend:    backend,
		tuning:     tun,
		tuningStr:  tun.String(),
		readOnly:   snap.Keys == nil,
		bitsPerKey: snap.Meta.BitsPerKey,
		buildSlots: make(chan struct{}, runtime.GOMAXPROCS(0)),
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
			f, err := backend.Unmarshal(fr.Payload)
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			sh.f = f
		}
		sh.epoch.Store(fr.Epoch)
		s.shards[i] = sh
		if s.readOnly {
			continue
		}
		// A filter is only ever built from at least one positive, so a
		// shard has a filter exactly when its baseline is positive. A keys
		// frame that breaks this would let the first rebuild replace the
		// filter with one built from keys that do not cover its members.
		k := snap.Keys[i]
		if sh.f == nil && k.Baseline > 0 {
			return nil, fmt.Errorf("shard %d: keys frame claims a filter built from %d keys, but the shard has none", i, k.Baseline)
		}
		if sh.f != nil && k.Baseline == 0 {
			return nil, fmt.Errorf("shard %d: keys frame holds none of the keys the shard's filter was built from", i)
		}
		sh.positives, sh.negatives, sh.baseline = k.Positives, k.Negatives, k.Baseline
		for _, key := range sh.positives[sh.baseline:] {
			if sh.f == nil || !sh.f.Contains(key) {
				sh.addPending(key)
			}
		}
	}
	// A filter-only container's pending keys: Adds a static backend acked
	// that its filters do not represent yet. Each goes back to the shard
	// it routes to, so it answers true.
	for _, key := range snap.Pending {
		sh := s.shards[s.route(key)]
		if sh.f == nil || !sh.f.Contains(key) {
			sh.addPending(key)
		}
	}
	return s, nil
}
