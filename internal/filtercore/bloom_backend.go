package filtercore

import (
	"fmt"
	"math"

	"repro/internal/bloom"
	"repro/internal/habf"
)

// bloomBackend adapts the standard Bloom filter baseline to the Backend
// interface. It is mutable (Add sets bits) but cost-oblivious: the
// shard's weighted negatives are ignored. It always uses the seeded64
// derivation — the paper's BF(City64) — whose probe positions all
// derive from hashes.Base, so a batch probe never re-reads key bytes.
// The hash count is a tuning knob, by default the FPR-optimal k for the
// bit budget.
type bloomBackend struct {
	f *bloom.Filter
}

var _ Backend = (*bloomBackend)(nil)

func (b *bloomBackend) Contains(key []byte) bool       { return b.f.Contains(key) }
func (b *bloomBackend) Name() string                   { return b.f.Name() }
func (b *bloomBackend) SizeBits() uint64               { return b.f.SizeBits() }
func (b *bloomBackend) MarshalBinary() ([]byte, error) { return b.f.MarshalBinary() }
func (b *bloomBackend) WireAlignOffset() int           { return bloom.WireAlignOffset }
func (b *bloomBackend) Borrowed() bool                 { return b.f.Borrowed() }

// ContainsBatchInto implements PreparedQuerier: every probe position
// derives from the shared base hash.
func (b *bloomBackend) ContainsBatchInto(dst []bool, keys [][]byte, hashes []uint64) {
	for i, h := range hashes[:len(keys)] {
		dst[i] = b.f.ContainsHash(h)
	}
}

func (b *bloomBackend) Add(key []byte) error {
	b.f.Add(key)
	return nil
}

// decodeBloom wraps a decoded BLMF payload, refusing strategies other
// than seeded64: their bits were set by a hash the batch probe does not
// compute.
func decodeBloom(f *bloom.Filter, err error) (Backend, error) {
	if err != nil {
		return nil, err
	}
	if !f.PreparedHash() {
		return nil, fmt.Errorf("bloom: %s frame cannot be served; only %s is", f.Name(), bloom.StrategySeeded64)
	}
	return &bloomBackend{f: f}, nil
}

func init() {
	Register(Factory{
		Name:      "bloom",
		Kind:      KindBloom,
		Static:    false,
		InnerName: func(habf.Params) string { return bloom.StrategySeeded64.String() },
		TuningSchema: NewSchema(
			Knob{Name: "k", Type: KnobInt, Min: 0, Max: 30,
				Default: "0", Doc: "hash positions per key; 0 derives the FPR-optimal round(ln2 · bits-per-key)"},
		),
		Build: func(positives [][]byte, _ []habf.WeightedKey, cfg BuildConfig) (Backend, error) {
			if len(positives) == 0 {
				return nil, fmt.Errorf("bloom: empty key set")
			}
			bitsPerKey := float64(cfg.TotalBits) / float64(len(positives))
			// Keep NewWithKeys's exact sizing so a default tuning builds a
			// bit-identical filter to bloom.NewWithKeys.
			m := uint64(math.Ceil(bitsPerKey * float64(len(positives))))
			if m == 0 {
				m = 1
			}
			k := cfg.Tuning.Int("k")
			if k == 0 {
				k = bloom.OptimalK(bitsPerKey)
			}
			f, err := bloom.New(m, k, bloom.StrategySeeded64)
			if err != nil {
				return nil, err
			}
			for _, key := range positives {
				f.Add(key)
			}
			return &bloomBackend{f: f}, nil
		},
		Unmarshal: func(data []byte) (Backend, error) { return decodeBloom(bloom.UnmarshalFilter(data)) },
	})
}
