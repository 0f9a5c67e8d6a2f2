package habf

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/hashes"
)

// Filter is a constructed Hash Adaptive Bloom Filter. It is safe for any
// number of concurrent readers; Add (the only mutator) must be externally
// synchronized against them.
type Filter struct {
	bfBits   *bitset.Bits // the Bloom bit array
	bloomLen uint64       // cached bfBits.Len(), hot on the query path
	he       *hashExpressor
	fam      *family
	h0       []uint8
	k        int
	fast     bool
	seed     int64
	added    uint64
	stats    Stats
}

// New constructs an HABF over the positive set with knowledge of the
// negative keys and their costs, per the TPJO algorithm of §III-D.
//
// positives and negatives should be disjoint (the problem definition of
// §III-A assumes S ∩ O = ∅); overlapping keys are tolerated but waste
// optimization effort. Costs must be finite and non-negative. The
// paper's defaults fill any zero Params field.
func New(positives [][]byte, negatives []WeightedKey, p Params) (*Filter, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(positives) == 0 {
		return nil, fmt.Errorf("habf: empty positive key set")
	}
	for i, n := range negatives {
		if !ValidCost(n.Cost) {
			return nil, fmt.Errorf("habf: negative key %d has invalid cost %v (want finite and >= 0)", i, n.Cost)
		}
	}

	b := newBuilder(positives, negatives, p)
	defer b.release()
	b.hashKeys()

	cq := b.buildCollisionQueue()

	for head := 0; head < len(cq); head++ {
		j := cq[head]
		if b.attempts[j] >= maxAdjustAttempts {
			b.stats.Failed++
			continue
		}
		b.attempts[j]++
		if !b.negTestsPositive(j) {
			// Broken by an earlier adjustment as a side effect; register it
			// in Γ so later adjustments cannot silently re-break it.
			b.addToGamma(j)
			continue
		}
		if b.optimize(j) {
			b.addToGamma(j)
		} else {
			b.stats.Failed++
		}
		if len(b.pendingVictims) > 0 {
			cq = append(cq, b.pendingVictims...)
			b.pendingVictims = b.pendingVictims[:0]
		}
	}

	// Repair rounds: an adjustment that sets a previously clear bit can
	// turn negatives that never collided before into collision keys. Γ
	// only watches the optimized ones, so §III-D's "if the adjustment
	// generates new collision keys, we insert them into the tail of CQ"
	// needs a re-scan to be honored for the rest — and with Γ disabled
	// (f-HABF) for all of them. Under skewed costs one re-broken hot key
	// dominates the weighted FPR, so this sweep matters.
	for round := 0; round < 2; round++ {
		var broken []int32
		for j := range b.negatives {
			if b.attempts[j] < maxAdjustAttempts && b.negTestsPositive(int32(j)) {
				broken = append(broken, int32(j))
			}
		}
		if len(broken) == 0 {
			break
		}
		if !p.DisableCostOrdering {
			b.sortByCost(broken)
		}
		progress := false
		for _, j := range broken {
			b.attempts[j]++
			if b.optimize(j) {
				b.addToGamma(j)
				progress = true
			}
		}
		if !progress {
			break
		}
	}

	b.measureAfter()
	b.stats.HashExpressorInserts = b.he.Inserted()

	return &Filter{
		bfBits:   b.bf,
		bloomLen: b.bf.Len(),
		he:       b.he,
		fam:      b.fam,
		h0:       b.h0,
		k:        p.K,
		fast:     p.Fast,
		seed:     p.Seed,
		stats:    b.stats,
	}, nil
}

// NewFast constructs an f-HABF (§III-G): double hashing for speed and Γ
// disabled. All other parameters keep the paper's defaults.
func NewFast(positives [][]byte, negatives []WeightedKey, p Params) (*Filter, error) {
	p.Fast = true
	return New(positives, negatives, p)
}

// measureAfter scans the negatives once after optimization: it counts
// the optimized keys that still test negative (Stats.Optimized) and
// measures the FPRs of the final Bloom state under H0 (F*bf of §IV-B).
// buildCollisionQueue measured the FPRs before optimization.
func (b *builder) measureAfter() {
	fp, optimized := 0, 0
	var fpCost float64
	for j, nk := range b.negatives {
		if b.negTestsPositive(int32(j)) {
			fp++
			fpCost += nk.Cost
		} else if b.optimized[j] {
			optimized++
		}
	}
	b.stats.Optimized = optimized
	b.stats.FPRAfter, b.stats.WeightedFPRAfter = b.fprs(fp, fpCost)
}

// Contains reports whether key may be a member. The two-round pattern of
// §III-E guarantees zero false negatives: positives that kept H0 pass
// round one; adjusted positives are recovered from HashExpressor and pass
// round two.
func (f *Filter) Contains(key []byte) bool {
	return f.contains(key)
}

// contains is the core of Contains: round one tests the default
// selection H0; round two walks the key's HashExpressor chain and tests
// the Bloom filter in the same pass, so each walked cell costs exactly
// one family-hash evaluation (the raw value is reduced by both the cell
// count and the Bloom length). Fusing the walk with the test answers
// identically to "query the full selection, then test it": both return
// true iff the chain is complete (k cells, endbit set) and every derived
// Bloom position is set.
func (f *Filter) contains(key []byte) bool {
	m := f.bloomLen
	fam := f.fam
	bits := f.bfBits
	if fam.fast {
		h1, h2 := hashes.Split128(key, fam.seed)
		pass := true
		for _, idx := range f.h0 {
			if !bits.Test(fam.rawFast(h1, h2, idx) % m) {
				pass = false
				break
			}
		}
		if pass {
			return true
		}
		return f.roundTwoFast(h1, h2, fam.entryFast(h1, h2)%f.he.omega, m)
	}
	pass := true
	for _, idx := range f.h0 {
		if !bits.Test(fam.rawSlow(key, idx) % m) {
			pass = false
			break
		}
	}
	if pass {
		return true
	}
	return f.roundTwoSlow(key, fam.entrySlow(key)%f.he.omega, m)
}

// roundTwoSlow recovers an adjusted key's customized selection from the
// HashExpressor, starting at the key's entry cell, and tests it against
// the Bloom filter, one family-hash evaluation per walked cell. An
// incomplete chain (empty cell, bad index, missing endbit) means "no
// stored selection": φ(e) = H0, and round one already failed.
func (f *Filter) roundTwoSlow(key []byte, cell, m uint64) bool {
	he, fam, bits := f.he, f.fam, f.bfBits
	for i := 0; i < he.k; i++ {
		endbit, v := he.load(cell)
		if v == 0 {
			return false
		}
		idx := v - 1
		if int(idx) >= fam.size {
			return false
		}
		raw := fam.rawSlow(key, idx)
		if !bits.Test(raw % m) {
			return false
		}
		if i == he.k-1 {
			return endbit
		}
		cell = raw % he.omega
	}
	return false
}

// roundTwoFast is roundTwoSlow for the f-HABF simulated family.
func (f *Filter) roundTwoFast(h1, h2, cell, m uint64) bool {
	he, fam, bits := f.he, f.fam, f.bfBits
	for i := 0; i < he.k; i++ {
		endbit, v := he.load(cell)
		if v == 0 {
			return false
		}
		idx := v - 1
		if int(idx) >= fam.size {
			return false
		}
		raw := fam.rawFast(h1, h2, idx)
		if !bits.Test(raw % m) {
			return false
		}
		if i == he.k-1 {
			return endbit
		}
		cell = raw % he.omega
	}
	return false
}

// ContainsBatch evaluates every key in one pass and returns a result per
// key, in order. It answers exactly like per-key Contains but hoists the
// per-call setup out of the loop, which is what serving layers batching
// queries want.
func (f *Filter) ContainsBatch(keys [][]byte) []bool {
	out := make([]bool, len(keys))
	f.ContainsBatchInto(out, keys)
	return out
}

// batchChunk is the number of keys the batch kernel stages together.
// Its per-chunk state lives in fixed stack arrays, so a batch allocates
// nothing; 64 keys keep enough independent loads in flight to overlap
// last-level cache misses, and the state (about 1.7 KB) stays in L1.
const batchChunk = 64

// ContainsBatchInto writes Contains(keys[i]) into dst[i]. dst must have
// at least len(keys) elements; extra elements are left untouched.
//
// It answers exactly like Contains but runs the two-round query column
// by column over chunks of batchChunk keys instead of key by key; see
// containsChunk.
func (f *Filter) ContainsBatchInto(dst []bool, keys [][]byte) {
	for len(keys) > 0 {
		n := min(len(keys), batchChunk)
		f.containsChunk(dst[:n], keys[:n])
		dst, keys = dst[n:], keys[n:]
	}
}

// containsChunk is the staged batch kernel behind ContainsBatchInto, for
// at most batchChunk keys. Per-key Contains waits on each Bloom load
// before it can decide whether to hash again, so a filter larger than
// the caches costs one full miss per probe. Here every stage first
// computes one position for every key still in play, then tests all of
// them with a branch-free compaction: the loads of different keys are
// independent and no branch waits on them, so the core keeps many misses
// in flight. The mode branch is taken once per stage, and a stage calls
// one family function for every key, so even slow mode's indirect call
// is predicted.
//
//  1. Prepare: f-HABF computes each key's two lanes once; slow mode
//     hashes the key itself in every stage, four keys at a time where
//     the stage's function has a 4-lane form (rawSlowSel).
//  2. Round one, one H0 function per stage: a key whose bit is clear
//     moves from live to miss and is not hashed again (early exit).
//  3. Round two: compute every miss's HashExpressor entry cell and load
//     the cells in one branch-free pass. Only keys whose entry cell is
//     non-empty walk their chain, through roundTwoSlow/roundTwoFast.
func (f *Filter) containsChunk(dst []bool, keys [][]byte) {
	var (
		h1, h2 [batchChunk]uint64 // f-HABF lanes, by key
		pos    [batchChunk]uint64 // this stage's position (or cell), by slot
		live   [batchChunk]uint8  // keys passing round one so far
		miss   [batchChunk]uint8  // keys that failed round one
	)
	fam, bits, he, m := f.fam, f.bfBits, f.he, f.bloomLen
	nl, nm := len(keys), 0
	for j := range nl {
		live[j] = uint8(j)
	}
	if fam.fast {
		for j, key := range keys {
			h1[j], h2[j] = hashes.Split128(key, fam.seed)
		}
	}

	for _, idx := range f.h0 {
		if fam.fast {
			for i, j := range live[:nl] {
				pos[i] = fam.rawFast(h1[j], h2[j], idx)
			}
		} else {
			fam.rawSlowSel(idx, keys, live[:nl], pos[:nl])
		}
		w := 0
		for i, j := range live[:nl] {
			hit := b2i(bits.Test(pos[i] % m))
			live[w], miss[nm] = j, j
			w += hit
			nm += 1 - hit
		}
		nl = w
	}
	clear(dst)
	for _, j := range live[:nl] {
		dst[j] = true
	}

	if fam.fast {
		for i, j := range miss[:nm] {
			pos[i] = fam.entryFast(h1[j], h2[j]) % he.omega
		}
	} else {
		for i, j := range miss[:nm] {
			pos[i] = fam.entrySlow(keys[j]) % he.omega
		}
	}
	w := 0
	for i, j := range miss[:nm] {
		cell := pos[i]
		miss[w], pos[w] = j, cell
		w += b2i(he.occupied(cell))
	}
	if fam.fast {
		for i, j := range miss[:w] {
			dst[j] = f.roundTwoFast(h1[j], h2[j], pos[i], m)
		}
	} else {
		for i, j := range miss[:w] {
			dst[j] = f.roundTwoSlow(keys[j], pos[i], m)
		}
	}
}

// b2i converts a bool to 0 or 1; the compiler emits a flag move (SETcc),
// not a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// Name identifies the filter in experiment output.
func (f *Filter) Name() string {
	if f.fast {
		return "f-HABF"
	}
	return "HABF"
}

// K returns the per-key hash budget.
func (f *Filter) K() int { return f.k }

// SizeBits returns the query-time footprint: Bloom bits plus HashExpressor
// cells.
func (f *Filter) SizeBits() uint64 {
	return f.bfBits.SizeBytes()*8 + f.he.SizeBits()
}

// BloomBits returns Δ2, the Bloom filter share of the budget.
func (f *Filter) BloomBits() uint64 { return f.bloomLen }

// FillRatio returns the Bloom filter's fraction of set bits.
func (f *Filter) FillRatio() float64 { return f.bfBits.FillRatio() }

// Stats returns construction statistics.
func (f *Filter) Stats() Stats { return f.stats }

// Borrowed reports whether any backing array still aliases the buffer the
// filter was decoded from (UnmarshalFilter, before any mutation).
func (f *Filter) Borrowed() bool {
	return f.bfBits.Borrowed() || f.he.cells.Borrowed()
}
