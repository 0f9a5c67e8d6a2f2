// Package workload generates deterministic key-access patterns for
// serving benchmarks. Filter accuracy experiments sample key *sets*
// (internal/dataset); a serving benchmark additionally needs an *access
// stream* over those sets, and real streams are skewed: most traffic
// concentrates on a few hot keys (web caches, LSM miss traffic), or
// chases the most recently written keys (time-series ingest).
//
// A Generator yields indices into a caller-owned key slice under one of
// four standard distributions (the YCSB vocabulary): uniform, zipfian,
// sequential, and latest. Generators are deterministic per seed and NOT
// safe for concurrent use — give each worker goroutine its own Generator
// with a distinct seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Distribution names a key-access pattern.
type Distribution string

const (
	// Uniform picks every key with equal probability.
	Uniform Distribution = "uniform"
	// Zipfian skews accesses toward low indices (index 0 is hottest),
	// the classic 80/20 shape of cache and blacklist traffic.
	Zipfian Distribution = "zipfian"
	// Sequential cycles through the keys in order, wrapping at the end.
	Sequential Distribution = "sequential"
	// Latest skews accesses toward the highest indices — "most recently
	// inserted" under an append-ordered key slice.
	Latest Distribution = "latest"
)

// Parse maps a CLI string to a Distribution.
func Parse(s string) (Distribution, error) {
	switch Distribution(s) {
	case Uniform, Zipfian, Sequential, Latest:
		return Distribution(s), nil
	}
	return "", fmt.Errorf("workload: unknown distribution %q (want uniform|zipfian|sequential|latest)", s)
}

// zipfS is the skew exponent: 1.1 matches the storage-benchmark
// convention of "zipfian" (YCSB uses 0.99; >1 is required by math/rand).
const zipfS = 1.1

// Generator yields key indices in [0, numKeys) under a Distribution.
type Generator struct {
	n    int
	dist Distribution
	rng  *rand.Rand
	zipf *rand.Zipf
	seq  int
}

// New returns a deterministic Generator over numKeys keys.
func New(dist Distribution, numKeys int, seed int64) (*Generator, error) {
	if numKeys <= 0 {
		return nil, fmt.Errorf("workload: numKeys = %d must be positive", numKeys)
	}
	if _, err := Parse(string(dist)); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	g := &Generator{n: numKeys, dist: dist, rng: rng}
	if dist == Zipfian {
		g.zipf = rand.NewZipf(rng, zipfS, 1, uint64(numKeys-1))
	}
	return g, nil
}

// Next returns the next key index.
func (g *Generator) Next() int {
	switch g.dist {
	case Zipfian:
		return int(g.zipf.Uint64())
	case Sequential:
		i := g.seq
		g.seq++
		if g.seq == g.n {
			g.seq = 0
		}
		return i
	case Latest:
		// Exponential-ish decay away from the newest key: |N(0,1)| scaled
		// to a tenth of the key space, clamped to the oldest key.
		span := g.n / 10
		if span < 1 {
			span = 1
		}
		off := int(math.Abs(g.rng.NormFloat64()) * float64(span))
		i := g.n - 1 - off
		if i < 0 {
			i = 0
		}
		return i
	default: // Uniform
		return g.rng.Intn(g.n)
	}
}

// MixProbes builds a deterministic probe stream of n keys mixing members
// and known negatives — the shape of real serving traffic, where honest
// hits interleave with (skewed) miss lookups. Even positions hold
// negatives, odd positions positives, with indices drawn from one
// Generator over len(negatives) (positive indices wrap modulo
// len(positives)). The parity convention lets callers check the
// zero-false-negative contract on a stream: result[i] for even i may be
// either way, for odd i it must be true.
func MixProbes(dist Distribution, seed int64, n int, positives, negatives [][]byte) ([][]byte, error) {
	if len(positives) == 0 || len(negatives) == 0 {
		return nil, fmt.Errorf("workload: MixProbes needs non-empty positives and negatives")
	}
	gen, err := New(dist, len(negatives), seed)
	if err != nil {
		return nil, err
	}
	probes := make([][]byte, n)
	for i := range probes {
		idx := gen.Next()
		if i%2 == 0 {
			probes[i] = negatives[idx]
		} else {
			probes[i] = positives[idx%len(positives)]
		}
	}
	return probes, nil
}

// Keys materializes a deterministic key universe of numKeys fixed-width
// keys ("key%012d"), the companion to Generator for benchmarks that do
// not load a dataset.
func Keys(numKeys int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]byte, numKeys)
	for i := range keys {
		// A random low-entropy suffix keeps keys from being purely
		// sequential while staying reproducible.
		keys[i] = []byte(fmt.Sprintf("key%012d-%04x", i, rng.Intn(1<<16)))
	}
	return keys
}
