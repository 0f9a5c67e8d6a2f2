// Package habf is a from-scratch Go implementation of the Hash Adaptive
// Bloom Filter (Xie et al., "Hash Adaptive Bloom Filter", ICDE 2021) and
// of every baseline its evaluation compares against.
//
// # The problem
//
// A standard Bloom filter treats all keys identically: k fixed hash
// functions, shared by every key. When the application knows (some of)
// the negative keys it will be queried with — blacklist probes, repeated
// failed lookups in an LSM-tree, cached miss traffic — and when
// misidentifying different negatives costs differently, that knowledge is
// wasted. HABF exploits it: each positive key can be assigned its own
// hash-function subset φ(e) drawn from a global family H, chosen at
// construction time so that costly negative keys stop colliding. The
// customized selections live in a compact probabilistic table (the
// HashExpressor), and a two-round query protocol preserves the Bloom
// filter's one-sided error: no false negatives, ever.
//
// # Quick start
//
//	positives := [][]byte{[]byte("alice"), []byte("bob")}
//	negatives := []habf.WeightedKey{{Key: []byte("mallory"), Cost: 10}}
//	f, err := habf.New(positives, negatives, 1024) // 1024-bit budget
//	if err != nil { ... }
//	f.Contains([]byte("alice"))   // true, always
//	f.Contains([]byte("mallory")) // false with high probability
//
// Use NewFast for the f-HABF variant (double hashing, ~7× faster
// construction, slightly higher FPR), and the NewBloom/NewXor/NewWBF/
// NewLBF/NewSLBF/NewAdaBF constructors for the paper's baselines. All
// filters implement the Filter interface, so the measurement helpers
// (WeightedFPR, FPR, FNR) apply uniformly.
//
// # Serving at scale
//
// A single *HABF is immutable for readers but requires external
// synchronization between Add and queries, which caps a filter service
// long before the hardware does. NewSharded builds the serving-layer
// form: the key space is partitioned across N independent shards by
// fingerprint-prefix routing, shards build in parallel, Add locks only
// the owning shard, and a drifted shard is re-optimized in the background
// and atomically swapped while the rest keep serving — no external
// locking anywhere.
//
//	s, err := habf.NewSharded(positives, negatives, 1<<20,
//		habf.WithShards(16))
//	s.Add([]byte("new-member"))        // concurrent with queries
//	hits := s.ContainsBatch(requests)  // one result per request
//
// The serving stack is generic over a pluggable filter backend
// (internal/filtercore): WithBackend selects the family every shard is
// built with — "habf" (default), "bloom" (standard Bloom, mutable),
// "wbf" (Weighted Bloom, mutable and cost-aware), or the static "xor"
// (Xor filter), "phbf" (partitioned hashing) and the learned "lbf",
// "slbf" and "adabf", whose Adds are buffered as pending and absorbed
// by the next rebuild — and sharding, batching, snapshots and the
// habfserved daemon all work identically across them. Backends lists
// the registry; Sharded.Backend reports the active one, and snapshots
// record it so Load restores through the right decoder. A full Save
// carries every shard's keys, pending Adds included, so a loaded set
// rebuilds like a built one and acked Adds survive restart cycles.
// SaveFilters writes only the filters, plus a pending-keys frame for
// Adds a static backend has not absorbed yet; Load of it answers those
// keys true but is read-only.
//
// ContainsBatch — available on both *HABF and *Sharded — groups a batch
// of keys by shard, takes each shard's lock once, and reuses one scratch
// buffer per group; under skewed (zipfian) request streams it is the
// fastest query path. Rebuild-on-drift guidance: per-key Add inserts
// under the shared initial hash selection without re-running the TPJO
// optimization, so the weighted FPR degrades gradually; a Sharded set
// rebuilds affected shards automatically once their post-construction
// Adds exceed WithRebuildThreshold (default 2% of the keys present at the
// last build).
package habf

import (
	"bytes"
	"fmt"

	ihabf "repro/internal/habf"
	"repro/internal/metrics"
)

// Filter is the common query-side interface of every filter in this
// module. Implementations are immutable after construction and safe for
// concurrent readers.
type Filter interface {
	// Contains reports whether key may be a member of the positive set.
	// False positives are possible; false negatives are not.
	Contains(key []byte) bool
	// Name identifies the filter variant ("HABF", "BF", "Xor", ...).
	Name() string
	// SizeBits is the memory footprint of the query-time structure.
	SizeBits() uint64
}

// WeightedKey is a known negative key with its misidentification cost
// Θ(e), which must be finite and non-negative. Uniform costs (all 1)
// reduce the weighted false-positive rate to the ordinary one. It is an
// alias of the internal type, so constructors hand the caller's slice to
// the builder without copying it.
type WeightedKey = ihabf.WeightedKey

// Stats reports what the TPJO construction algorithm did; see the fields
// of the internal type for details.
type Stats = ihabf.Stats

// Option customizes HABF construction beyond the paper's defaults
// (k = 3, 4-bit HashExpressor cells, Δ = 0.25 space split).
type Option func(*ihabf.Params)

// WithK sets the per-key hash-function count (2..usable family size).
func WithK(k int) Option { return func(p *ihabf.Params) { p.K = k } }

// WithCellBits sets the HashExpressor cell size in bits (3..6). Cell size
// α exposes 2^(α-1)-1 hash functions of the global family.
func WithCellBits(bits uint) Option { return func(p *ihabf.Params) { p.CellBits = bits } }

// WithSpaceRatio sets Δ = Δ1/Δ2, the HashExpressor:Bloom budget split.
func WithSpaceRatio(r float64) Option { return func(p *ihabf.Params) { p.SpaceRatio = r } }

// WithSeed makes all construction-time randomness reproducible.
func WithSeed(seed int64) Option { return func(p *ihabf.Params) { p.Seed = seed } }

// WithoutGamma disables the Γ conflict-detection index (ablation; f-HABF
// implies this).
func WithoutGamma() Option { return func(p *ihabf.Params) { p.DisableGamma = true } }

// WithoutOverlapRanking disables the maximize-cell-overlap tie-break
// among insertable adjustments (ablation).
func WithoutOverlapRanking() Option {
	return func(p *ihabf.Params) { p.DisableOverlapRanking = true }
}

// WithoutCostOrdering processes collision keys FIFO instead of
// highest-cost-first (ablation).
func WithoutCostOrdering() Option {
	return func(p *ihabf.Params) { p.DisableCostOrdering = true }
}

// HABF is the constructed Hash Adaptive Bloom Filter.
type HABF struct {
	inner *ihabf.Filter
}

var _ Filter = (*HABF)(nil)

// New builds an HABF over positives within totalBits of memory, using the
// negative keys and their costs to customize hash selections (TPJO).
func New(positives [][]byte, negatives []WeightedKey, totalBits uint64, opts ...Option) (*HABF, error) {
	p := ihabf.Params{TotalBits: totalBits}
	for _, o := range opts {
		o(&p)
	}
	inner, err := ihabf.New(positives, negatives, p)
	if err != nil {
		return nil, fmt.Errorf("habf: %w", err)
	}
	return &HABF{inner: inner}, nil
}

// NewFast builds an f-HABF: double hashing replaces the 22-function
// corpus and conflict detection is disabled, trading a little accuracy
// for construction speed near a plain Bloom filter's.
func NewFast(positives [][]byte, negatives []WeightedKey, totalBits uint64, opts ...Option) (*HABF, error) {
	p := ihabf.Params{TotalBits: totalBits, Fast: true}
	for _, o := range opts {
		o(&p)
	}
	p.Fast = true
	inner, err := ihabf.New(positives, negatives, p)
	if err != nil {
		return nil, fmt.Errorf("habf: %w", err)
	}
	return &HABF{inner: inner}, nil
}

// Contains reports whether key may be a member (two-round query, zero
// false negatives).
func (f *HABF) Contains(key []byte) bool { return f.inner.Contains(key) }

// ContainsBatch evaluates every key in one pass and returns one result
// per key, in order. Answers are identical to per-key Contains; the batch
// form hoists per-call setup (Bloom length, HashExpressor scratch buffer)
// out of the loop.
func (f *HABF) ContainsBatch(keys [][]byte) []bool { return f.inner.ContainsBatch(keys) }

// Name returns "HABF" or "f-HABF".
func (f *HABF) Name() string { return f.inner.Name() }

// SizeBits returns the query-time footprint: Bloom bits + HashExpressor.
func (f *HABF) SizeBits() uint64 { return f.inner.SizeBits() }

// Stats returns construction statistics (collision keys found, optimized,
// FPR before/after, ...).
func (f *HABF) Stats() Stats { return f.inner.Stats() }

// Add inserts a key after construction, under the shared initial hash
// selection — the key is queryable immediately and the zero-false-
// negative guarantee is preserved. Optimization does not re-run, so the
// weighted FPR degrades gradually; rebuild once AddedKeys reaches a few
// percent of the original set. Add must not run concurrently with reads.
func (f *HABF) Add(key []byte) { f.inner.Add(key) }

// AddedKeys reports how many keys were inserted after construction.
func (f *HABF) AddedKeys() uint64 { return f.inner.AddedKeys() }

// K returns the per-key hash budget.
func (f *HABF) K() int { return f.inner.K() }

// MarshalBinary encodes the query-time state of the filter (Bloom array,
// HashExpressor, hashing configuration) in a versioned format, so a filter
// built once can be shipped to query nodes. Construction statistics are
// not serialized.
func (f *HABF) MarshalBinary() ([]byte, error) { return f.inner.MarshalBinary() }

// UnmarshalHABF decodes a filter produced by (*HABF).MarshalBinary. The
// decoded filter answers queries identically to the original; its Stats
// are zero. It keeps no reference to data: the decoder aliases its input,
// so it decodes a private copy.
func UnmarshalHABF(data []byte) (*HABF, error) {
	inner, err := ihabf.UnmarshalFilter(bytes.Clone(data))
	if err != nil {
		return nil, fmt.Errorf("habf: %w", err)
	}
	return &HABF{inner: inner}, nil
}

// WeightedFPR measures Eq. 1/20 of the paper over known negatives: the
// cost mass of false positives divided by total cost mass.
func WeightedFPR(f Filter, negatives [][]byte, costs []float64) (float64, error) {
	return metrics.WeightedFPR(f, negatives, costs)
}

// FPR measures the plain false-positive rate over known negatives.
func FPR(f Filter, negatives [][]byte) (float64, error) {
	return metrics.FPR(f, negatives)
}

// FNR measures the false-negative rate over known positives. Every filter
// constructed by this module returns 0.
func FNR(f Filter, positives [][]byte) (float64, error) {
	return metrics.FNR(f, positives)
}
