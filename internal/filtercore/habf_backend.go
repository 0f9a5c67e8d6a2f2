package filtercore

import (
	"repro/internal/habf"
)

// habfBackend adapts *habf.Filter — the paper's Hash Adaptive Bloom
// Filter — to the Backend interface. It is the default backend and the
// only cost-aware one: construction runs the TPJO optimization over the
// shard's weighted negatives.
type habfBackend struct {
	f *habf.Filter
}

var _ Backend = (*habfBackend)(nil)

func (b *habfBackend) Contains(key []byte) bool       { return b.f.Contains(key) }
func (b *habfBackend) Name() string                   { return b.f.Name() }
func (b *habfBackend) SizeBits() uint64               { return b.f.SizeBits() }
func (b *habfBackend) MarshalBinary() ([]byte, error) { return b.f.MarshalBinary() }
func (b *habfBackend) WireAlignOffset() int           { return habf.WireAlignOffset(b.f.K()) }
func (b *habfBackend) Borrowed() bool                 { return b.f.Borrowed() }

func (b *habfBackend) Add(key []byte) error {
	b.f.Add(key)
	return nil
}

// ContainsBatchInto implements PreparedQuerier. HABF keeps its own hash
// family (Table II corpus / simulated double hashing), so the shared base
// hashes are ignored; the filter's staged batch kernel probes the
// sub-batch one hash function at a time across all its keys, overlapping
// their cache misses.
func (b *habfBackend) ContainsBatchInto(dst []bool, keys [][]byte, _ []uint64) {
	b.f.ContainsBatchInto(dst, keys)
}

func init() {
	Register(Factory{
		Name:   "habf",
		Kind:   KindHABF,
		Static: false,
		InnerName: func(p habf.Params) string {
			if p.Fast {
				return "f-HABF"
			}
			return "HABF"
		},
		TuningSchema: NewSchema(
			Knob{Name: "k", Type: KnobInt, Min: 0, Max: 31,
				Default: "0", Doc: "candidate hash functions per key (bounded by what cellbits can index); 0 means 3"},
			Knob{Name: "cellbits", Type: KnobEnum, Enum: []string{"0", "3", "4", "5", "6"},
				Default: "0", Doc: "HashExpressor cell width in bits; 0 means 4"},
		),
		Build: func(positives [][]byte, negatives []habf.WeightedKey, cfg BuildConfig) (Backend, error) {
			// Tuning knobs and the legacy WithK/WithCellBits options land in
			// the same Params fields; a set knob wins over the option.
			p := cfg.Params
			p.TotalBits = cfg.TotalBits
			if k := cfg.Tuning.Int("k"); k != 0 {
				p.K = k
			}
			if cb := cfg.Tuning.Int("cellbits"); cb != 0 {
				p.CellBits = uint(cb)
			}
			f, err := habf.New(positives, negatives, p)
			if err != nil {
				return nil, err
			}
			return &habfBackend{f: f}, nil
		},
		Unmarshal: func(data []byte) (Backend, error) {
			f, err := habf.UnmarshalFilter(data)
			if err != nil {
				return nil, err
			}
			return &habfBackend{f: f}, nil
		},
	})
}
