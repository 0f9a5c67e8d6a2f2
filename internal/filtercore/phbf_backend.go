package filtercore

import (
	"repro/internal/habf"
	"repro/internal/phbf"
)

// phbfBackend adapts the partitioned-hashing Bloom filter of Hao et al.
// (SIGMETRICS 2007) — the closest prior work to HABF — to the Backend
// interface. It is static: the greedy per-group seed selection is a
// whole-set optimization that cannot absorb inserts, so Add returns
// ErrStaticBackend and the shard layer buffers the key as pending until
// a rebuild re-runs the greedy over the full key set.
type phbfBackend struct {
	f *phbf.Filter
}

var _ Backend = (*phbfBackend)(nil)

func (b *phbfBackend) Contains(key []byte) bool       { return b.f.Contains(key) }
func (b *phbfBackend) Add([]byte) error               { return ErrStaticBackend }
func (b *phbfBackend) Name() string                   { return b.f.Name() }
func (b *phbfBackend) SizeBits() uint64               { return b.f.SizeBits() }
func (b *phbfBackend) Kind() Kind                     { return KindPHBF }
func (b *phbfBackend) MarshalBinary() ([]byte, error) { return b.f.MarshalBinary() }
func (b *phbfBackend) WireAlignOffset() int           { return phbf.WireAlignOffset(b.f.Groups()) }
func (b *phbfBackend) Borrowed() bool                 { return b.f.Borrowed() }

// ContainsBatchInto implements PreparedQuerier: group selection and all
// probe positions derive from the shared base hash.
func (b *phbfBackend) ContainsBatchInto(dst []bool, keys [][]byte, hashes []uint64) {
	for i, h := range hashes[:len(keys)] {
		dst[i] = b.f.ContainsHash(h)
	}
}

func init() {
	Register(Factory{
		Name:      "phbf",
		Kind:      KindPHBF,
		Static:    true,
		InnerName: func(habf.Params) string { return "PHBF" },
		TuningSchema: NewSchema(
			Knob{Name: "groups", Type: KnobInt, Min: 0, Max: 65536,
				Default: "0", Doc: "key partitions, each with its own greedily chosen seed; 0 means 64"},
			Knob{Name: "candidates", Type: KnobInt, Min: 0, Max: 1024,
				Default: "0", Doc: "candidate seeds tried per group by the greedy selection; 0 means 8"},
		),
		Build: func(positives [][]byte, _ []habf.WeightedKey, cfg BuildConfig) (Backend, error) {
			f, err := phbf.New(positives, phbf.Config{
				TotalBits:  cfg.TotalBits,
				Groups:     cfg.Tuning.Int("groups"),
				Candidates: cfg.Tuning.Int("candidates"),
			})
			if err != nil {
				return nil, err
			}
			return &phbfBackend{f: f}, nil
		},
		Unmarshal: func(data []byte) (Backend, error) {
			f, err := phbf.UnmarshalFilter(data)
			if err != nil {
				return nil, err
			}
			return &phbfBackend{f: f}, nil
		},
		UnmarshalBorrow: func(data []byte) (Backend, error) {
			f, err := phbf.UnmarshalFilterBorrow(data)
			if err != nil {
				return nil, err
			}
			return &phbfBackend{f: f}, nil
		},
	})
}
