package filtercore

import (
	"repro/internal/habf"
	"repro/internal/wbf"
)

// wbfBackend adapts the Weighted Bloom filter baseline (Bruck et al.
// 2006) to the Backend interface. Like HABF it is cost-aware — the
// shard's weighted negatives drive a per-key hash-count allocation, and
// the costliest negatives' counts are cached for query time — and like
// the standard Bloom it is mutable: Add inserts with the base hash
// count, exactly as construction inserts positives.
type wbfBackend struct {
	f *wbf.Filter
}

var _ Backend = (*wbfBackend)(nil)

func (b *wbfBackend) Contains(key []byte) bool       { return b.f.Contains(key) }
func (b *wbfBackend) Name() string                   { return b.f.Name() }
func (b *wbfBackend) SizeBits() uint64               { return b.f.SizeBits() }
func (b *wbfBackend) Kind() Kind                     { return KindWBF }
func (b *wbfBackend) MarshalBinary() ([]byte, error) { return b.f.MarshalBinary() }
func (b *wbfBackend) WireAlignOffset() int           { return wbf.WireAlignOffset }
func (b *wbfBackend) Borrowed() bool                 { return b.f.Borrowed() }

// ContainsBatchInto implements PreparedQuerier. Probe positions derive
// from the shared base hash; the key bytes are still consulted for the
// per-key hash-count cache lookup.
func (b *wbfBackend) ContainsBatchInto(dst []bool, keys [][]byte, hashes []uint64) {
	for i, h := range hashes[:len(keys)] {
		dst[i] = b.f.ContainsHash(keys[i], h)
	}
}

func (b *wbfBackend) Add(key []byte) error {
	b.f.Add(key)
	return nil
}

func init() {
	Register(Factory{
		Name:      "wbf",
		Kind:      KindWBF,
		Static:    false,
		InnerName: func(habf.Params) string { return "WBF" },
		TuningSchema: NewSchema(
			Knob{Name: "cache", Type: KnobFloat, Min: 0, Max: 1,
				Default: "0.05", Doc: "fraction of cost-descending negatives whose hash count is cached for query time; 0 means the 0.05 default"},
			Knob{Name: "k", Type: KnobInt, Min: 0, Max: 60,
				Default: "0", Doc: "base hash count for average-cost keys; 0 derives round(ln2 · bits-per-key)"},
			Knob{Name: "maxk", Type: KnobInt, Min: 0, Max: 64,
				Default: "0", Doc: "ceiling on per-key hash counts; 0 means base k + 4"},
		),
		Build: func(positives [][]byte, negatives []habf.WeightedKey, cfg BuildConfig) (Backend, error) {
			conv := make([]wbf.WeightedKey, len(negatives))
			for i, n := range negatives {
				conv[i] = wbf.WeightedKey{Key: n.Key, Cost: n.Cost}
			}
			f, err := wbf.New(positives, conv, wbf.Config{
				TotalBits:     cfg.TotalBits,
				BaseK:         cfg.Tuning.Int("k"),
				CacheFraction: cfg.Tuning.Float("cache"),
				MaxK:          cfg.Tuning.Int("maxk"),
			})
			if err != nil {
				return nil, err
			}
			return &wbfBackend{f: f}, nil
		},
		Unmarshal: func(data []byte) (Backend, error) {
			f, err := wbf.UnmarshalFilter(data)
			if err != nil {
				return nil, err
			}
			return &wbfBackend{f: f}, nil
		},
		UnmarshalBorrow: func(data []byte) (Backend, error) {
			f, err := wbf.UnmarshalFilterBorrow(data)
			if err != nil {
				return nil, err
			}
			return &wbfBackend{f: f}, nil
		},
	})
}
