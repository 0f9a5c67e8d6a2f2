package habf

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/hashes"
)

// builder carries the construction-time state of the TPJO algorithm
// (§III-D): the Bloom bit array, the HashExpressor, and the two runtime
// auxiliary indexes V (single-mapped bit index) and Γ (optimized-key
// buckets). It is discarded after Build; only the query-time Filter
// survives, which is what gives HABF its small resident footprint and its
// larger construction footprint (Fig. 15).
type builder struct {
	p   Params
	fam *family

	m  uint64 // Bloom bits
	bf *bitset.Bits
	he *hashExpressor
	h0 []uint8 // the initial selection H0 (function indices)

	positives [][]byte
	negatives []WeightedKey

	posHash []uint64 // f-HABF only: h1, h2 per positive key (flat)
	posH0   []uint64 // k positions per positive key under H0 (flat)
	negH0   []uint64 // k positions per negative key under H0 (flat)

	// V: per Bloom bit, the id of the one positive key that maps it, or
	// vEmpty or vMulti (see vInsert).
	v []int32

	// Γ: buckets of optimized negative keys, keyed by bit position.
	gamma     map[uint64][]int32
	optimized []bool // negative key currently tests negative after opt.
	inGamma   []bool
	attempts  []uint8

	// Adjusted positive keys and their customized selections.
	adjusted []bool
	phis     map[int32][]uint8

	// pendingVictims collects re-broken optimized keys for the main loop
	// to push onto the collision queue tail.
	pendingVictims []int32

	stats Stats
}

// Stats reports what TPJO did during construction.
type Stats struct {
	// CollisionKeys is T, the initial size of the collision queue.
	CollisionKeys int
	// Optimized is t, collision keys that end up testing negative. It can
	// exceed CollisionKeys: the end-of-construction repair rounds also
	// optimize negatives that only became collision keys through a later
	// adjustment and therefore never entered the initial queue.
	Optimized int
	// Failed counts collision keys that could not be optimized.
	Failed int
	// Requeued counts re-broken optimized keys pushed back to the queue.
	Requeued int
	// AdjustedPositives counts positive keys whose selection was changed.
	AdjustedPositives int
	// HashExpressorInserts is the number of stored selections.
	HashExpressorInserts uint64
	// FPRBefore and FPRAfter are the unweighted Bloom FPRs over the given
	// negative set before and after optimization (Fbf and F*bf of §IV-B).
	FPRBefore, FPRAfter float64
	// WeightedFPRBefore and WeightedFPRAfter weight the same measurements
	// by key cost (Eq. 1).
	WeightedFPRBefore, WeightedFPRAfter float64
}

func newBuilder(positives [][]byte, negatives []WeightedKey, p Params) *builder {
	b := &builder{
		p:         p,
		fam:       newFamily(p),
		positives: positives,
		negatives: negatives,
		gamma:     make(map[uint64][]int32),
		phis:      make(map[int32][]uint8),
	}
	heBits, bfBits := p.split()
	b.m = bfBits
	b.bf = bitset.New(b.m)
	b.he = newHashExpressor(heBits, p.CellBits, p.K)

	// H0: a random k-subset of the usable family, shared by all keys.
	perm := rand.New(rand.NewSource(p.Seed)).Perm(b.fam.size)
	b.h0 = make([]uint8, p.K)
	for i := 0; i < p.K; i++ {
		b.h0[i] = uint8(perm[i])
	}
	sort.Slice(b.h0, func(i, j int) bool { return b.h0[i] < b.h0[j] })
	return b
}

// V's unit states besides a key id (Fig. 4): no key maps the unit, or
// two or more mappings do. A unit holding a key id is single-mapped.
const (
	vEmpty int32 = -1
	vMulti int32 = -2
)

// chunkOrder lists the positions of a chunk in order: the selection
// that hashes every key of a chunk with rawSlowSel.
var chunkOrder = func() (o [batchChunk]uint8) {
	for i := range o {
		o[i] = uint8(i)
	}
	return o
}()

// hashKeys computes every key's H0 positions in one pass over chunks of
// batchChunk keys. Within a chunk it runs one H0 function per stage, as
// the batch kernel does, so slow mode's byte-serial functions hash four
// keys in lockstep. Each chunk of positives then sets its Bloom bits and
// enters V while its positions are still in cache (§III-D, Fig. 4).
//
// V does not depend on the order keys enter it: a unit's key id is read
// only while exactly one mapping holds the unit, and then it is that
// mapping's key whichever order the keys came in. So input order serves.
//
// Negatives need their hashing context only here; positives keep theirs
// for the adjustment search, which in slow mode is just the key and in
// f-HABF mode the two base hashes kept in posHash.
func (b *builder) hashKeys() {
	k, n := b.p.K, len(b.positives)
	b.posH0 = make([]uint64, n*k)
	if b.fam.fast {
		b.posHash = make([]uint64, 2*n)
	}
	b.v = make([]int32, b.m)
	for i := range b.v {
		b.v[i] = vEmpty
	}
	for lo := 0; lo < n; lo += batchChunk {
		hi := min(lo+batchChunk, n)
		var h12 []uint64
		if b.fam.fast {
			h12 = b.posHash[2*lo : 2*hi]
		}
		b.hashChunk(b.positives[lo:hi], b.posH0[lo*k:hi*k], h12)
		for id := lo; id < hi; id++ {
			for _, p := range b.posH0[id*k : id*k+k] {
				b.bf.Set(p)
				b.vInsert(int32(id), p)
			}
		}
	}

	b.negH0 = make([]uint64, len(b.negatives)*k)
	var keys [batchChunk][]byte
	var h12 [2 * batchChunk]uint64
	for lo := 0; lo < len(b.negatives); lo += batchChunk {
		hi := min(lo+batchChunk, len(b.negatives))
		for i := range hi - lo {
			keys[i] = b.negatives[lo+i].Key
		}
		b.hashChunk(keys[:hi-lo], b.negH0[lo*k:hi*k], h12[:2*(hi-lo)])
	}
}

// hashChunk writes the H0 positions of up to batchChunk keys into h0,
// k per key. In f-HABF mode it first writes each key's base hashes
// h1, h2 into h12, which has two entries per key.
func (b *builder) hashChunk(keys [][]byte, h0, h12 []uint64) {
	k, m, fam := b.p.K, b.m, b.fam
	var raw [batchChunk]uint64
	touchKeys(keys)
	if fam.fast {
		for i, key := range keys {
			h12[2*i], h12[2*i+1] = hashes.Split128(key, fam.seed)
		}
	}
	for s, idx := range b.h0 {
		if fam.fast {
			for i := range keys {
				raw[i] = fam.rawFast(h12[2*i], h12[2*i+1], idx)
			}
		} else {
			fam.rawSlowSel(idx, keys, chunkOrder[:len(keys)], raw[:len(keys)])
		}
		for i := range keys {
			h0[i*k+s] = raw[i] % m
		}
	}
}

// touchKeys loads the first byte of every key. A shard's keys lie
// scattered across the heap, so each one's first read misses the cache;
// this loop issues those misses back to back, where the hash stages would
// wait for them one key at a time.
func touchKeys(keys [][]byte) {
	var touch byte
	for _, key := range keys {
		if len(key) > 0 {
			touch |= key[0]
		}
	}
	runtime.KeepAlive(touch)
}

// posKey rebuilds positive key i's hashing context: the key itself, plus
// its base hashes from posHash in f-HABF mode.
func (b *builder) posKey(i int32) keyState {
	ks := keyState{key: b.positives[i]}
	if b.fam.fast {
		ks.h1, ks.h2 = b.posHash[2*i], b.posHash[2*i+1]
	}
	return ks
}

// vInsert records that positive id maps Bloom unit pos, per the three
// V-update cases of Fig. 4: an empty unit becomes single-mapped by id
// (Case 1), a single-mapped unit becomes multi-mapped (Case 2), and a
// multi-mapped unit stays so (Case 3).
func (b *builder) vInsert(id int32, pos uint64) {
	next := vMulti
	if b.v[pos] == vEmpty {
		next = id
	}
	b.v[pos] = next
}

// testNegativePositions reports whether negative key j currently passes the
// Bloom check under H0 (i.e. is a collision key).
func (b *builder) negTestsPositive(j int32) bool {
	k := b.p.K
	for s := 0; s < k; s++ {
		if !b.bf.Test(b.negH0[int(j)*k+s]) {
			return false
		}
	}
	return true
}

// buildCollisionQueue gathers all colliding negatives, highest cost first
// (the paper optimizes costly keys first because HashExpressor insertion
// gets harder as it fills).
func (b *builder) buildCollisionQueue() []int32 {
	cq := make([]int32, 0, len(b.negatives)/8+1)
	for j := range b.negatives {
		if b.negTestsPositive(int32(j)) {
			cq = append(cq, int32(j))
		}
	}
	if !b.p.DisableCostOrdering {
		sort.SliceStable(cq, func(x, y int) bool {
			return b.negatives[cq[x]].Cost > b.negatives[cq[y]].Cost
		})
	}
	return cq
}

// addToGamma registers an optimized key in the Γ buckets of its H0
// positions (once per distinct bucket).
func (b *builder) addToGamma(j int32) {
	if b.p.DisableGamma {
		b.optimized[j] = true
		return
	}
	b.optimized[j] = true
	if b.inGamma[j] {
		return
	}
	b.inGamma[j] = true
	k := b.p.K
	h0 := b.negH0[int(j)*k : int(j)*k+k]
	for s, pos := range h0 {
		if !slices.Contains(h0[:s], pos) {
			b.gamma[pos] = append(b.gamma[pos], j)
		}
	}
}

// conflictVictims implements Algorithm 1: the optimized keys in bucket pos
// that would become collision keys again if the Bloom bit at pos flipped
// from 0 to 1.
func (b *builder) conflictVictims(pos uint64) []int32 {
	bucket := b.gamma[pos]
	if len(bucket) == 0 {
		return nil
	}
	k := b.p.K
	var victims []int32
	for _, j := range bucket {
		if !b.optimized[j] {
			continue // stale entry; key is back in the queue
		}
		wouldPass := true
		for s := 0; s < k; s++ {
			p := b.negH0[int(j)*k+s]
			if p == pos {
				continue
			}
			if !b.bf.Test(p) {
				wouldPass = false
				break
			}
		}
		if wouldPass {
			victims = append(victims, j)
		}
	}
	return victims
}

// candidate is one possible adjustment of a positive key: replace the hash
// slot mapping to the single-mapped unit with function hc.
type candidate struct {
	hc      uint8
	npos    uint64  // position of es under hc
	tier    int     // 0: bit already set; 1: new bit, no conflicts; 2: new bit, paid conflicts
	damage  float64 // Θ of re-broken optimized keys (tier 2)
	victims []int32
}

// optimize attempts to make collision key j test negative by adjusting one
// positive key found through V, per phase-I of Fig. 3 and the example in
// Fig. 7. It returns true on success.
func (b *builder) optimize(j int32) bool {
	k := b.p.K
	cost := b.negatives[j].Cost
	for s := 0; s < k; s++ {
		pos := b.negH0[int(j)*k+s]
		// ξck membership: exactly one positive key maps the unit.
		es := b.v[pos]
		if es < 0 {
			continue
		}
		if b.adjusted[es] {
			// A stored selection cannot be re-stored (the HashExpressor
			// path is immutable); skip, preserving zero FNR.
			continue
		}
		// Find the H0 slot of es that maps to this unit.
		huSlot := -1
		for t := 0; t < k; t++ {
			if b.posH0[int(es)*k+t] == pos {
				huSlot = t
				break
			}
		}
		if huSlot < 0 {
			continue // unreachable if V is consistent
		}
		kh := b.fam.hashAll(b.posKey(es))
		cands := b.gatherCandidates(&kh, pos, cost)
		if len(cands) == 0 {
			continue
		}
		if b.applyBestCandidate(j, es, huSlot, pos, cands, &kh) {
			return true
		}
	}
	return false
}

// gatherCandidates enumerates replacement functions hc ∈ H − φ(es) and
// classifies them into the three preference tiers. kh holds es's hashes.
func (b *builder) gatherCandidates(kh *keyHashes, clearedPos uint64, cost float64) []candidate {
	var inH0 uint32 // bit idx set for each H0 member; the family has ≤31 functions
	for _, idx := range b.h0 {
		inH0 |= 1 << idx
	}
	var cands []candidate
	for hc := 0; hc < b.fam.size; hc++ {
		idx := uint8(hc)
		if inH0&(1<<idx) != 0 {
			continue
		}
		npos := kh.raw[idx] % b.m
		if npos == clearedPos {
			// Re-setting the bit we are about to clear would leave the
			// collision key positive; never a valid adjustment.
			continue
		}
		if b.bf.Test(npos) {
			cands = append(cands, candidate{hc: idx, npos: npos, tier: 0})
			continue
		}
		if b.p.DisableGamma {
			cands = append(cands, candidate{hc: idx, npos: npos, tier: 1})
			continue
		}
		victims := b.conflictVictims(npos)
		if len(victims) == 0 {
			cands = append(cands, candidate{hc: idx, npos: npos, tier: 1})
			continue
		}
		var damage float64
		for _, v := range victims {
			damage += b.negatives[v].Cost
		}
		if cost-damage >= 0 {
			cands = append(cands, candidate{hc: idx, npos: npos, tier: 2, damage: damage, victims: victims})
		}
	}
	sort.SliceStable(cands, func(x, y int) bool {
		if cands[x].tier != cands[y].tier {
			return cands[x].tier < cands[y].tier
		}
		return cands[x].damage < cands[y].damage
	})
	return cands
}

// applyBestCandidate walks candidates tier by tier, simulating the
// HashExpressor insertion of each resulting selection and committing the
// best insertable one (maximum cell overlap within the first tier that has
// any insertable candidate, per the paper's Fig. 7 example).
func (b *builder) applyBestCandidate(j, es int32, huSlot int, clearedPos uint64, cands []candidate, kh *keyHashes) bool {
	var buf [maxFamily]uint8
	phi := buf[:copy(buf[:], b.h0)] // H0 with slot huSlot replaced
	i := 0
	for i < len(cands) {
		tier := cands[i].tier
		best := -1
		var bestPlan insertPlan
		for ; i < len(cands) && cands[i].tier == tier; i++ {
			phi[huSlot] = cands[i].hc
			plan, ok := b.he.simulate(kh, phi)
			if !ok {
				continue
			}
			if best < 0 || (!b.p.DisableOverlapRanking && plan.overlap > bestPlan.overlap) {
				best, bestPlan = i, plan
			}
			if b.p.DisableOverlapRanking {
				break
			}
		}
		if best < 0 {
			continue // no insertable candidate in this tier; try next tier
		}
		phi[huSlot] = cands[best].hc
		b.commitAdjustment(j, es, huSlot, clearedPos, cands[best], slices.Clone(phi), bestPlan)
		return true
	}
	return false
}

// commitAdjustment performs phase-II plus all index maintenance:
// store the new selection, clear the single-mapped bit, set the new bit,
// update V, requeue any re-broken optimized keys, and register the freshly
// optimized key in Γ.
func (b *builder) commitAdjustment(j, es int32, huSlot int, clearedPos uint64, c candidate, phi []uint8, plan insertPlan) {
	b.he.commit(plan)
	b.phis[es] = phi
	b.adjusted[es] = true
	b.stats.AdjustedPositives++

	// The cleared unit was mapped exactly once (by es); it returns to
	// ⟨1, NULL⟩ and its Bloom bit can be switched off.
	b.bf.Clear(clearedPos)
	b.v[clearedPos] = vEmpty

	if !b.bf.Test(c.npos) {
		b.bf.Set(c.npos)
	}
	b.vInsert(es, c.npos)

	for _, v := range c.victims {
		b.optimized[v] = false
		b.stats.Requeued++
	}
	b.pendingVictims = append(b.pendingVictims, c.victims...)
}

// String renders the statistics in a compact human-readable form.
func (s Stats) String() string {
	return fmt.Sprintf(
		"collisions=%d optimized=%d failed=%d requeued=%d adjusted=%d inserts=%d FPR %.4f%%->%.4f%% wFPR %.4f%%->%.4f%%",
		s.CollisionKeys, s.Optimized, s.Failed, s.Requeued, s.AdjustedPositives,
		s.HashExpressorInserts,
		s.FPRBefore*100, s.FPRAfter*100,
		s.WeightedFPRBefore*100, s.WeightedFPRAfter*100)
}
