// Package bloom implements the standard Bloom filter baseline of the paper
// in its three evaluated flavours (§V-H, Fig. 14):
//
//   - StrategyCorpus: k distinct hash functions drawn from the global
//     corpus of Table II — the paper's plain "BF";
//   - StrategySeeded64: one strong 64-bit hash re-seeded k times — the
//     paper's "BF(City64)";
//   - StrategySplit128: one 128-bit hash split into two lanes combined by
//     double hashing — the paper's "BF(XXH128)".
//
// The filter is insert-then-query: Add during construction, Contains at
// query time. It is not safe for concurrent mutation.
package bloom

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/hashes"
)

// Strategy selects how the k bit positions of a key are derived.
type Strategy int

const (
	// StrategyCorpus uses k distinct functions from the Table II corpus.
	StrategyCorpus Strategy = iota
	// StrategySeeded64 derives k values from one strong 64-bit hash and k
	// seeds — the paper's BF(City64) construction. The base hash is the
	// shared hashes.Base of the batch read path, so prepared batch callers
	// can hand the filter an already-computed value (ContainsHash).
	StrategySeeded64
	// StrategySplit128 derives k values from a 128-bit hash (two lanes)
	// via Kirsch–Mitzenmacher double hashing.
	StrategySplit128
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyCorpus:
		return "BF"
	case StrategySeeded64:
		return "BF(City64)"
	case StrategySplit128:
		return "BF(XXH128)"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Filter is a standard Bloom filter.
type Filter struct {
	bits     *bitset.Bits
	k        int
	strategy Strategy
	fns      []hashes.Func // StrategyCorpus only
	n        uint64        // inserted keys (statistics only)
}

// OptimalK returns the FPR-minimizing hash count k = ln2·b for a given
// bits-per-key budget, clamped to [1, 30].
func OptimalK(bitsPerKey float64) int {
	k := int(math.Round(math.Ln2 * bitsPerKey))
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return k
}

// TheoreticalFPR returns (1 - e^{-k/b})^k, the standard false-positive
// estimate for bits-per-key b and k hash functions.
func TheoreticalFPR(bitsPerKey float64, k int) float64 {
	if bitsPerKey <= 0 {
		return 1
	}
	return math.Pow(1-math.Exp(-float64(k)/bitsPerKey), float64(k))
}

// New returns a Bloom filter with m bits and k hash positions per key,
// using the given strategy.
func New(m uint64, k int, strategy Strategy) (*Filter, error) {
	if m == 0 {
		return nil, fmt.Errorf("bloom: zero-length filter")
	}
	if k < 1 {
		return nil, fmt.Errorf("bloom: k = %d, need k >= 1", k)
	}
	f := &Filter{bits: bitset.New(m), k: k, strategy: strategy}
	if strategy == StrategyCorpus {
		corpus := hashes.CorpusFuncs()
		if k > len(corpus) {
			return nil, fmt.Errorf("bloom: k = %d exceeds corpus size %d", k, len(corpus))
		}
		f.fns = corpus[:k]
	}
	return f, nil
}

// NewWithKeys builds a filter sized at bitsPerKey·len(keys) bits with the
// FPR-optimal k and inserts every key.
func NewWithKeys(keys [][]byte, bitsPerKey float64, strategy Strategy) (*Filter, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("bloom: empty key set")
	}
	m := uint64(math.Ceil(bitsPerKey * float64(len(keys))))
	if m == 0 {
		m = 1
	}
	f, err := New(m, OptimalK(bitsPerKey), strategy)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		f.Add(k)
	}
	return f, nil
}

// positionsK appends the first k bit positions of key to dst and returns
// it. k is capped at the filter's configured hash count for the corpus
// strategy (which has a fixed function list).
func (f *Filter) positionsK(key []byte, k int, dst []uint64) []uint64 {
	m := f.bits.Len()
	switch f.strategy {
	case StrategyCorpus:
		if k > len(f.fns) {
			k = len(f.fns)
		}
		for _, fn := range f.fns[:k] {
			dst = append(dst, fn(key)%m)
		}
	case StrategySeeded64:
		base := hashes.Base(key)
		for i := 0; i < k; i++ {
			dst = append(dst, hashes.Mix64(base^hashes.Mix64(uint64(i)+0x9e3779b97f4a7c15))%m)
		}
	case StrategySplit128:
		hi, lo := hashes.Split128(key, 0)
		for i := 0; i < k; i++ {
			dst = append(dst, hashes.Double(hi, lo, i)%m)
		}
	}
	return dst
}

// Add inserts key into the filter.
func (f *Filter) Add(key []byte) {
	f.AddK(key, f.k)
}

// AddK inserts key using only the first k derived positions. Filters that
// vary the hash count per key (Ada-BF, WBF-style schemes) share one array
// and call this directly; k must not exceed the filter's configured k.
func (f *Filter) AddK(key []byte, k int) {
	if k > f.k {
		k = f.k
	}
	var buf [32]uint64
	for _, p := range f.positionsK(key, k, buf[:0]) {
		f.bits.Set(p)
	}
	f.n++
}

// Contains reports whether key may be in the set. False positives are
// possible; false negatives are not.
func (f *Filter) Contains(key []byte) bool {
	return f.ContainsK(key, f.k)
}

// ContainsK checks membership using only the first k derived positions.
// A key inserted with AddK(key, k) is always found by ContainsK(key, k).
func (f *Filter) ContainsK(key []byte, k int) bool {
	if k > f.k {
		k = f.k
	}
	var buf [32]uint64
	for _, p := range f.positionsK(key, k, buf[:0]) {
		if !f.bits.Test(p) {
			return false
		}
	}
	return true
}

// PreparedHash reports whether ContainsHash can answer for this filter:
// only the seeded64 strategy derives all probe positions from the shared
// base hash (hashes.Base); the corpus and split128 strategies read the
// key bytes directly.
func (f *Filter) PreparedHash() bool { return f.strategy == StrategySeeded64 }

// ContainsHash is Contains for a precomputed base = hashes.Base(key),
// valid only when PreparedHash reports true. Batch callers that already
// hashed the key for shard routing use it to skip re-reading key bytes.
func (f *Filter) ContainsHash(base uint64) bool {
	m := f.bits.Len()
	for i := 0; i < f.k; i++ {
		if !f.bits.Test(hashes.Mix64(base^hashes.Mix64(uint64(i)+0x9e3779b97f4a7c15)) % m) {
			return false
		}
	}
	return true
}

// Name identifies the filter in experiment output.
func (f *Filter) Name() string { return f.strategy.String() }

// K returns the number of hash positions per key.
func (f *Filter) K() int { return f.k }

// MBits returns the filter length in bits.
func (f *Filter) MBits() uint64 { return f.bits.Len() }

// SizeBits returns the memory consumed by the query-time structure in bits.
func (f *Filter) SizeBits() uint64 { return f.bits.SizeBytes() * 8 }

// Count returns the number of inserted keys.
func (f *Filter) Count() uint64 { return f.n }

// FillRatio returns the fraction of set bits.
func (f *Filter) FillRatio() float64 { return f.bits.FillRatio() }
