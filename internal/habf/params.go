// Package habf implements the paper's primary contribution: the Hash
// Adaptive Bloom Filter (HABF) and its fast variant f-HABF.
//
// An HABF is a standard Bloom filter plus a compact probabilistic hash
// table (HashExpressor) that stores customized hash-function selections for
// the few positive keys whose initial selection collides with costly
// negative keys. Construction runs the Two-Phase Joint Optimization (TPJO)
// algorithm of §III-D; queries follow the two-round pattern of §III-E and
// never produce false negatives.
package habf

import (
	"fmt"
	"math"

	"repro/internal/hashes"
)

// WeightedKey is a negative key together with its misidentification cost
// Θ(e). Costs must be non-negative; uniform costs reduce the weighted FPR
// to the ordinary FPR (Eq. 1).
type WeightedKey struct {
	Key  []byte
	Cost float64
}

// ValidCost reports whether c is usable as a cost: finite and
// non-negative. NaN and +Inf would poison every cost sum TPJO and the
// weighted FPR take.
func ValidCost(c float64) bool { return c >= 0 && !math.IsInf(c, 1) }

// Params configures HABF construction. The zero value is not usable; call
// (Params).withDefaults via New, which fills in every unset field with the
// paper's defaults (§V-D): k=3, cell size 4 bits, Δ=0.25.
type Params struct {
	// TotalBits is the overall space budget Δ1+Δ2 for HashExpressor plus
	// Bloom filter, in bits. Required.
	TotalBits uint64
	// K is the number of hash functions per key. Default 3.
	K int
	// CellBits is the HashExpressor cell size in bits (endbit + hashindex).
	// A cell of α bits can address 2^(α-1)-1 corpus functions. Default 4.
	CellBits uint
	// SpaceRatio is Δ = Δ1/Δ2, the HashExpressor:Bloom split. Default 0.25
	// (1:4), the optimum found in Fig. 9(a).
	SpaceRatio float64
	// Seed drives every random choice in construction (H0 selection, V
	// insertion order). Two builds with equal inputs and seeds are
	// identical. Default 1.
	Seed int64
	// Fast selects f-HABF (§III-G): hash values are simulated by double
	// hashing from two base hashes, and the Γ conflict index is disabled.
	Fast bool

	// Ablation switches (all default off; see DESIGN.md §6).

	// DisableGamma turns off Γ conflict detection without switching to
	// double hashing (isolates f-HABF's accuracy loss).
	DisableGamma bool
	// DisableOverlapRanking disables the maximize-cell-overlap tie-break
	// when several candidate adjustments are insertable.
	DisableOverlapRanking bool
	// DisableCostOrdering processes the collision queue FIFO instead of
	// highest-cost-first.
	DisableCostOrdering bool
}

// maxAdjustAttempts bounds how many times one negative key may re-enter
// the collision queue after being broken by later adjustments, preventing
// livelock between equal-cost keys.
const maxAdjustAttempts = 4

func (p Params) withDefaults() Params {
	if p.K == 0 {
		p.K = 3
	}
	if p.CellBits == 0 {
		p.CellBits = 4
	}
	if p.SpaceRatio == 0 {
		p.SpaceRatio = 0.25
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Fast {
		p.DisableGamma = true
	}
	return p
}

// Validate checks the hashing-relevant fields (K, CellBits, SpaceRatio,
// after defaulting) without requiring a space budget — the exported form
// for callers that build Params from untrusted input, like a snapshot
// restore, where TotalBits is derived later per shard.
func (p Params) Validate() error {
	p.TotalBits = 1024 // placeholder; budget is validated where it is set
	return p.withDefaults().validate()
}

func (p Params) validate() error {
	if p.TotalBits < 64 {
		return fmt.Errorf("habf: TotalBits = %d too small", p.TotalBits)
	}
	if p.CellBits < 3 || p.CellBits > 6 {
		return fmt.Errorf("habf: CellBits = %d out of range [3,6]", p.CellBits)
	}
	usable := usableFunctions(p.CellBits, p.Fast)
	if p.K < 2 || p.K > usable {
		return fmt.Errorf("habf: K = %d out of range [2,%d] for cell size %d", p.K, usable, p.CellBits)
	}
	if p.SpaceRatio <= 0 || p.SpaceRatio >= 1 {
		return fmt.Errorf("habf: SpaceRatio = %v out of range (0,1)", p.SpaceRatio)
	}
	return nil
}

// usableFunctions returns the size of the effective hash family: the cell's
// hashindex field has CellBits-1 bits and reserves 0 for "empty", so only
// 2^(CellBits-1)-1 functions are addressable (§V-D3). The slow variant is
// additionally limited by the 22-function corpus of Table II.
func usableFunctions(cellBits uint, fast bool) int {
	byCell := (1 << (cellBits - 1)) - 1
	if fast {
		return byCell
	}
	if c := hashes.CorpusSize(); c < byCell {
		return c
	}
	return byCell
}

// split derives the HashExpressor and Bloom filter sizes from the budget:
// Δ1 = Total·Δ/(1+Δ), Δ2 = Total/(1+Δ).
func (p Params) split() (heBits, bfBits uint64) {
	d1 := float64(p.TotalBits) * p.SpaceRatio / (1 + p.SpaceRatio)
	heBits = uint64(math.Round(d1))
	if heBits < uint64(p.CellBits) {
		heBits = uint64(p.CellBits)
	}
	if heBits >= p.TotalBits {
		heBits = p.TotalBits / 2
	}
	bfBits = p.TotalBits - heBits
	return heBits, bfBits
}
