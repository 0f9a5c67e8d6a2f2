package habf

import "repro/internal/hashes"

// family adapts the two hashing regimes of the paper behind one interface:
// the full Table II corpus for HABF, and Kirsch–Mitzenmacher simulated
// hashing g_i(x) = h1(x) + (i+1)·h2(x) for f-HABF (§III-G).
//
// A keyState caches the per-key work (the two base hashes in fast mode) so
// that walking several function indices for one key costs one strong hash
// evaluation, mirroring f-HABF's speed advantage.
type family struct {
	fns   []hashes.Func // slow mode: the first `size` corpus functions
	lanes []laneForm    // slow mode: the 4-lane form of each of fns
	size  int
	fast  bool
	seed  uint64
}

// laneForm names the 4-lane form of a corpus function (see rawSlowSel).
// Only the byte-serial functions among the first 7 have one: lanes pay
// off where one key's hash is a long serial dependency chain, and the
// block hashes are already fast enough that lockstep costs more than it
// saves (BenchmarkCorpus32).
type laneForm uint8

const (
	scalarOnly laneForm = iota
	laneOAAT
	laneHsieh
)

// maxFamily is the largest family size: 2^(6-1)-1 functions at the
// largest cell size (usableFunctions).
const maxFamily = 31

// keyHashes caches one key's raw hash under every family function and its
// raw entry hash. TPJO's candidate search reads a positive's hashes many
// times per attempt, for each candidate's Bloom position and for every
// cell a HashExpressor simulation visits, so it computes them once.
type keyHashes struct {
	raw   [maxFamily]uint64
	entry uint64
}

// keyState is the prepared per-key hashing context.
type keyState struct {
	key    []byte
	h1, h2 uint64 // fast mode only
}

func newFamily(p Params) *family {
	f := &family{
		size: usableFunctions(p.CellBits, p.Fast),
		fast: p.Fast,
		seed: uint64(p.Seed)*0x9e3779b97f4a7c15 + 0xabcdef,
	}
	if !p.Fast {
		f.fns = make([]hashes.Func, f.size)
		f.lanes = make([]laneForm, f.size)
		for i, n := range hashes.Corpus()[:f.size] {
			f.fns[i] = n.Fn
			switch n.Name {
			case "OAAT":
				f.lanes[i] = laneOAAT
			case "Hsieh":
				f.lanes[i] = laneHsieh
			}
		}
	}
	return f
}

// prepare computes the per-key context once.
func (f *family) prepare(key []byte) keyState {
	if !f.fast {
		return keyState{key: key}
	}
	h1, h2 := hashes.Split128(key, f.seed)
	return keyState{key: key, h1: h1, h2: h2}
}

// pos returns the position of the key under function idx, modulo mod.
func (f *family) pos(ks keyState, idx uint8, mod uint64) uint64 {
	if f.fast {
		return f.rawFast(ks.h1, ks.h2, idx) % mod
	}
	return f.rawSlow(ks.key, idx) % mod
}

// rawSlow returns the un-reduced hash of key under corpus function idx.
// The fused query path computes it once per walked HashExpressor cell and
// reduces it by both moduli (cell count and Bloom length) itself.
func (f *family) rawSlow(key []byte, idx uint8) uint64 {
	return f.fns[idx](key)
}

// rawFast is rawSlow for the f-HABF simulated family: the key is fully
// described by its two prepared lanes.
func (f *family) rawFast(h1, h2 uint64, idx uint8) uint64 {
	return hashes.EnhancedDouble(h1, h2, int(idx)+1)
}

// rawSlowSel writes rawSlow(keys[sel[i]], idx) into out[i] for every i.
// A function with a 4-lane form hashes the selected keys four at a time
// (keys of unequal length fall back to the scalar form inside the lane
// form); the rest, and the last len(sel)%4 keys, go through the scalar
// function. The lane forms are called directly rather than through a func
// value, which keeps the batch kernel's stack arrays from escaping.
func (f *family) rawSlowSel(idx uint8, keys [][]byte, sel []uint8, out []uint64) {
	out = out[:len(sel)]
	i := 0
	switch f.lanes[idx] {
	case laneOAAT:
		for ; i+4 <= len(sel); i += 4 {
			out[i], out[i+1], out[i+2], out[i+3] = hashes.OAAT4(keys[sel[i]], keys[sel[i+1]], keys[sel[i+2]], keys[sel[i+3]])
		}
	case laneHsieh:
		for ; i+4 <= len(sel); i += 4 {
			out[i], out[i+1], out[i+2], out[i+3] = hashes.Hsieh4(keys[sel[i]], keys[sel[i+1]], keys[sel[i+2]], keys[sel[i+3]])
		}
	}
	fn := f.fns[idx]
	for ; i < len(sel); i++ {
		out[i] = fn(keys[sel[i]])
	}
}

// hashAll computes the key's raw hash under every family function and
// its raw entry hash.
func (f *family) hashAll(ks keyState) keyHashes {
	var kh keyHashes
	if f.fast {
		for idx := range f.size {
			kh.raw[idx] = f.rawFast(ks.h1, ks.h2, uint8(idx))
		}
		kh.entry = f.entryFast(ks.h1, ks.h2)
		return kh
	}
	for idx := range f.size {
		kh.raw[idx] = f.rawSlow(ks.key, uint8(idx))
	}
	kh.entry = f.entrySlow(ks.key)
	return kh
}

// entry returns the HashExpressor entry position f(e) (the "unified hash
// function" of Table I), which must be independent of every family member.
func (f *family) entry(ks keyState, mod uint64) uint64 {
	if f.fast {
		return f.entryFast(ks.h1, ks.h2) % mod
	}
	return f.entrySlow(ks.key) % mod
}

// entrySlow and entryFast return the un-reduced entry hash.
func (f *family) entrySlow(key []byte) uint64 {
	return hashes.XXH64Seed(key, f.seed^0x517cc1b727220a95)
}

func (f *family) entryFast(h1, h2 uint64) uint64 {
	return hashes.Mix64(h1 ^ (h2 << 1) ^ f.seed)
}
