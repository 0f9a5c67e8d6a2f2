package habf

import "repro/internal/bitset"

// hashExpressor is the lightweight probabilistic hash table of §III-C that
// stores customized hash-function selections. It has ω cells of CellBits
// bits each; bit 0 of a cell is the endbit, the remaining bits hold
// hashindex+1 (0 means empty, matching the paper's "a cell is empty if
// both fields are zero").
//
// Cells are never overwritten once non-empty: an insertion either claims
// empty cells (Case 1) or traverses cells that already hold the hash it
// needs (Case 2). This is what makes stored selections immortal and the
// structure false-negative-free for inserted keys.
type hashExpressor struct {
	cells *bitset.Lanes
	omega uint64
	k     int
	t     uint64 // number of inserted selections (the paper's t)
}

func newHashExpressor(heBits uint64, cellBits uint, k int) *hashExpressor {
	omega := heBits / uint64(cellBits)
	if omega == 0 {
		omega = 1
	}
	return &hashExpressor{
		cells: bitset.NewLanes(omega, cellBits),
		omega: omega,
		k:     k,
	}
}

// load decodes cell i into (endbit, hashindex+1). v == 0 means empty.
func (he *hashExpressor) load(i uint64) (endbit bool, v uint8) {
	raw := he.cells.Get(i)
	return raw&1 == 1, uint8(raw >> 1)
}

// occupied reports whether cell i is non-empty (load's v != 0). Unlike
// load it fits the inlining budget, which the batch kernel's branch-free
// cell pass needs.
func (he *hashExpressor) occupied(i uint64) bool { return he.cells.Get(i)>>1 != 0 }

// store encodes (endbit, hashindex+1) into cell i.
func (he *hashExpressor) store(i uint64, endbit bool, v uint8) {
	raw := uint64(v) << 1
	if endbit {
		raw |= 1
	}
	he.cells.Set(i, raw)
}

// insertPlan is the outcome of a successful simulation: the cells an
// insertion would touch, in visit order, with the hash index each cell
// carries and whether the cell is newly claimed.
type insertPlan struct {
	cells   [32]uint64
	hidxs   [32]uint8
	isNew   [32]bool
	n       int
	overlap int // Case-2 reuses; the paper's "overlap with stored functions"
}

// simulateNodeBudget bounds the assignment search. The paper picks the
// hash placed into an empty cell at random; we instead search the small
// assignment tree deterministically (k ≤ 5 so the tree is tiny) and return
// the maximum-overlap plan, which strictly improves insert success while
// preserving the structure's semantics.
const simulateNodeBudget = 64

// simulate reports whether the selection phi (function indices) for the
// key whose hashes kh holds could be inserted, without mutating the table.
func (he *hashExpressor) simulate(kh *keyHashes, phi []uint8) (insertPlan, bool) {
	var best insertPlan
	found := false
	budget := simulateNodeBudget

	var cur insertPlan
	var used uint32 // bitmask over phi slots already marked valid

	var dfs func(cell uint64, depth int)
	dfs = func(cell uint64, depth int) {
		if budget <= 0 {
			return
		}
		budget--
		if depth == len(phi) {
			if !found || cur.overlap > best.overlap {
				best = cur
				best.n = depth
				found = true
			}
			return
		}
		// Effective cell content: later steps may revisit a cell claimed
		// earlier in this plan.
		_, v := he.load(cell)
		isNew := false
		if v == 0 {
			for i := 0; i < depth; i++ {
				if cur.cells[i] == cell {
					v = cur.hidxs[i] + 1
					break
				}
			}
			isNew = v == 0
		}
		if !isNew {
			// Case 2: the stored function must be a still-unmarked member
			// of phi; otherwise Case 3 (fail this branch).
			for s, p := range phi {
				if p+1 == v && used&(1<<s) == 0 {
					cur.cells[depth] = cell
					cur.hidxs[depth] = p
					cur.isNew[depth] = false
					cur.overlap++
					used |= 1 << s
					dfs(kh.raw[p]%he.omega, depth+1)
					used &^= 1 << s
					cur.overlap--
					return // at most one slot can match a stored value
				}
			}
			return
		}
		// Case 1: empty cell; try each unmarked member of phi.
		for s, p := range phi {
			if used&(1<<s) != 0 {
				continue
			}
			cur.cells[depth] = cell
			cur.hidxs[depth] = p
			cur.isNew[depth] = true
			used |= 1 << s
			dfs(kh.raw[p]%he.omega, depth+1)
			used &^= 1 << s
			if found && budget <= 0 {
				return
			}
		}
	}
	dfs(kh.entry%he.omega, 0)
	return best, found
}

// commit applies a plan returned by simulate. The table must not have
// changed between simulate and commit.
func (he *hashExpressor) commit(plan insertPlan) {
	for i := 0; i < plan.n; i++ {
		endbit, v := he.load(plan.cells[i])
		if plan.isNew[i] {
			v = plan.hidxs[i] + 1
		}
		if i == plan.n-1 {
			endbit = true
		}
		he.store(plan.cells[i], endbit, v)
	}
	he.t++
}

// query retrieves the stored selection for the key described by ks,
// appending function indices to dst. It returns nil when the key has no
// stored selection (the caller falls back to H0), exactly mirroring the
// paper's query procedure: follow cells from f(e), collect k indices, and
// require the k-th cell's endbit to be 1.
func (he *hashExpressor) query(fam *family, ks keyState, dst []uint8) []uint8 {
	cell := fam.entry(ks, he.omega)
	for i := 0; i < he.k; i++ {
		endbit, v := he.load(cell)
		if v == 0 {
			return nil
		}
		idx := v - 1
		if int(idx) >= fam.size {
			// A cell written with a wider family than ours cannot occur in
			// practice; treat as miss for robustness.
			return nil
		}
		dst = append(dst, idx)
		if i == he.k-1 {
			if !endbit {
				return nil
			}
			return dst
		}
		cell = fam.pos(ks, idx, he.omega)
	}
	return nil
}

// Inserted returns the number of stored selections (the paper's t).
func (he *hashExpressor) Inserted() uint64 { return he.t }

// SizeBits returns the memory consumed by the cell array in bits.
func (he *hashExpressor) SizeBits() uint64 { return he.cells.SizeBytes() * 8 }
