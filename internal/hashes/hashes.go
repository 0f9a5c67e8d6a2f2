// Package hashes implements the global hash-function family H of the paper
// (Table II): 22 deterministic 64-bit hash functions over byte strings,
// written from scratch on the standard library only.
//
// HABF draws each key's customized selection φ(e) from this corpus, so what
// matters is that the functions are deterministic, cheap, and mutually
// different — not that they are byte-identical to the reference C
// implementations. The strong functions (xx64-, city-, murmur-style,
// Jenkins) follow the published mixing structure of their namesakes; the
// classic string hashes (DJB, BKDR, SDBM, ...) are the canonical one-line
// recurrences widened to 64-bit accumulators. Several of the classics are
// deliberately weak hashes: the paper keeps them in H to show that hash
// customization also protects against skewed hash functions.
package hashes

import (
	"encoding/binary"
	"math/bits"
)

// Func is a deterministic 64-bit hash over a byte string.
type Func func(data []byte) uint64

// Named couples a corpus function with its Table II name.
type Named struct {
	Name string
	Fn   Func
}

// corpus is the fixed global family H. Order matters: HashExpressor cells
// can only index the first 2^(cellBits-1)-1 entries, so the strongest
// general-purpose functions come first (cell size 4 exposes the first 7,
// cell size 5 the first 15, exactly as in §V-D3 of the paper).
var corpus = []Named{
	{"XX64", XXH64},
	{"City64", City64},
	{"Murmur64", Murmur64},
	{"BOB", BOB},
	{"OAAT", OAAT},
	{"SuperFast", SuperFast},
	{"Hsieh", Hsieh},
	{"CRC32", CRC},
	{"FNV", FNV1a},
	{"DEK", DEK},
	{"PYHash", PYHash},
	{"BRP", BRP},
	{"TWMX", TWMX},
	{"APHash", AP},
	{"NDJB", NDJB},
	{"DJB", DJB},
	{"BKDR", BKDR},
	{"PJW", PJW},
	{"JSHash", JS},
	{"RSHash", RS},
	{"SDBM", SDBM},
	{"ELF", ELF},
}

// Corpus returns the global hash family H in its canonical order.
// The returned slice is a copy; callers may reorder it freely.
func Corpus() []Named {
	out := make([]Named, len(corpus))
	copy(out, corpus)
	return out
}

// CorpusFuncs returns just the functions of H, in canonical order.
func CorpusFuncs() []Func {
	out := make([]Func, len(corpus))
	for i, n := range corpus {
		out[i] = n.Fn
	}
	return out
}

// CorpusSize returns |H|.
func CorpusSize() int { return len(corpus) }

// ByName returns the corpus function with the given Table II name.
func ByName(name string) (Func, bool) {
	for _, n := range corpus {
		if n.Name == name {
			return n.Fn, true
		}
	}
	return nil, false
}

// BaseSeed seeds the shared per-key base hash of the batch read path.
// shard.Set routes keys with the top bits of Base(key) and hands the full
// 64-bit value to every backend's batch probe (filtercore.PreparedQuerier);
// the hash-derived backends re-derive their probe positions from it via
// Mix64 dispersal instead of re-reading the key. The constant is part of
// the stored-bit derivation of the seeded64 Bloom strategy, the xor
// filter, PHBF, and WBF — changing it invalidates their serialized
// containers.
const BaseSeed uint64 = 0x51ce5eed0ba5e000

// Base multipliers: the published wyhash secret constants. Each is odd
// with balanced bit counts, which is what the folded-multiply mixer needs
// to avoid cancellation.
const (
	baseM1 uint64 = 0xa0761d6478bd642f
	baseM2 uint64 = 0xe7037ed1a0b428db
	baseM3 uint64 = 0x8ebc6af09c88c6e3
	baseM4 uint64 = 0x589965cc75374cc3
)

// baseMum folds one 64x64→128 multiply into 64 bits. A single widening
// multiply diffuses every input bit into both halves; xoring the halves
// keeps all of that entropy at a third of the latency of a
// multiply-rotate-multiply chain.
func baseMum(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// Base is the per-key base hash shared by routing and position derivation:
// one strong 64-bit hash, computed once per key per batch. shard routing
// consumes its top bits and hash-derived backends re-derive probe
// positions from the full value, so Base sits on the critical path of
// every batched query; it uses a wyhash-style folded-multiply construction
// (three widening multiplies for keys up to 16 bytes, one more per further
// 16 bytes) rather than the corpus XX64, whose multiply-rotate finalizer
// is several times slower on short keys.
//
// The exact output is a format constant: seeded64 Bloom, Xor, PHBF and WBF
// containers store bits derived from it (see their filterVersion 2 docs),
// and sharded snapshots route by it. Changing Base — or BaseSeed — breaks
// every one of those containers; TestBaseGoldenVectors pins it.
func Base(data []byte) uint64 {
	n := len(data)
	seed := BaseSeed ^ baseM1
	var a, b uint64
	if n <= 16 {
		if n >= 8 {
			a = binary.LittleEndian.Uint64(data)
			b = binary.LittleEndian.Uint64(data[n-8:])
		} else if n >= 4 {
			a = uint64(binary.LittleEndian.Uint32(data))
			b = uint64(binary.LittleEndian.Uint32(data[n-4:]))
		} else if n > 0 {
			a = uint64(data[0])<<16 | uint64(data[n>>1])<<8 | uint64(data[n-1])
		}
	} else {
		p := data
		i := n
		if i > 48 {
			// Three independent lanes keep the multiplies pipelined on
			// long keys; they collapse into the seed before the tail.
			s1, s2 := seed, seed
			for ; i > 48; i -= 48 {
				seed = baseMum(binary.LittleEndian.Uint64(p)^baseM1, binary.LittleEndian.Uint64(p[8:])^seed)
				s1 = baseMum(binary.LittleEndian.Uint64(p[16:])^baseM2, binary.LittleEndian.Uint64(p[24:])^s1)
				s2 = baseMum(binary.LittleEndian.Uint64(p[32:])^baseM3, binary.LittleEndian.Uint64(p[40:])^s2)
				p = p[48:]
			}
			seed ^= s1 ^ s2
		}
		for ; i > 16; i -= 16 {
			seed = baseMum(binary.LittleEndian.Uint64(p)^baseM2, binary.LittleEndian.Uint64(p[8:])^seed)
			p = p[16:]
		}
		a = binary.LittleEndian.Uint64(data[n-16:])
		b = binary.LittleEndian.Uint64(data[n-8:])
	}
	return baseMum(baseM4^uint64(n), baseMum(a^baseM2, b^seed))
}

// Mix64 is the splitmix64 finalizer: a cheap full-avalanche 64-bit mixer
// used to derive seeded variants and to post-condition weak values.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// BaseLanes derives two double-hashing lanes from a base hash and a seed
// via chained Mix64 dispersal. Mix64 is bijective with full avalanche, so
// conditioning on the base's top bits (which shard routing consumes) does
// not bias the derived lanes — the same argument split-block Bloom filters
// use when they route on high bits and probe with remixed low bits.
func BaseLanes(base, seed uint64) (h1, h2 uint64) {
	h1 = Mix64(base ^ seed)
	h2 = Mix64(h1 ^ 0xc3a5c85c97cb3127)
	return h1, h2
}

// Split128 produces two independent 64-bit lanes from one key, in the
// spirit of a 128-bit hash: the lanes come from structurally different
// mixers (xx64 and city-style) so they do not cancel under double hashing.
func Split128(data []byte, seed uint64) (hi, lo uint64) {
	hi = XXH64Seed(data, seed)
	lo = Mix64(City64(data) ^ Mix64(seed^0x9e3779b97f4a7c15))
	return hi, lo
}

// Double implements the Kirsch–Mitzenmacher simulated hash g_i(x) =
// h1(x) + i·h2(x) used by the split-128 Bloom variant (§III-G of the
// paper). h2 is forced odd so that g_i cycles through all residues of a
// power-of-two table.
func Double(h1, h2 uint64, i int) uint64 {
	return h1 + uint64(i)*(h2|1)
}

// EnhancedDouble is the Dillinger–Manolios triangular variant
// g_i(x) = h1 + i·h2 + (i³-i)/6, which breaks the arithmetic-progression
// correlation of plain double hashing. f-HABF derives its simulated
// family from it: the paper cites Dillinger [31] for plain double
// hashing's degradation, and per-key position diversity is exactly what
// TPJO's candidate search needs.
func EnhancedDouble(h1, h2 uint64, i int) uint64 {
	u := uint64(i)
	return h1 + u*(h2|1) + (u*u*u-u)/6
}
