package filtercore

import (
	"repro/internal/habf"
	"repro/internal/xorfilter"
)

// xorBackend adapts the Xor filter baseline to the Backend interface.
// It is static: the peeling construction cannot absorb inserts, so Add
// returns ErrStaticBackend and the shard layer buffers the key as
// pending until a rebuild absorbs it.
type xorBackend struct {
	f *xorfilter.Filter
}

var _ Backend = (*xorBackend)(nil)

func (b *xorBackend) Contains(key []byte) bool       { return b.f.Contains(key) }
func (b *xorBackend) Add([]byte) error               { return ErrStaticBackend }
func (b *xorBackend) Name() string                   { return b.f.Name() }
func (b *xorBackend) SizeBits() uint64               { return b.f.SizeBits() }
func (b *xorBackend) Kind() Kind                     { return KindXor }
func (b *xorBackend) MarshalBinary() ([]byte, error) { return b.f.MarshalBinary() }
func (b *xorBackend) WireAlignOffset() int           { return xorfilter.WireAlignOffset }
func (b *xorBackend) Borrowed() bool                 { return b.f.Borrowed() }

// ContainsBatchInto implements PreparedQuerier: the per-attempt key hash
// derives from the shared base, so prepared batches skip the key bytes.
func (b *xorBackend) ContainsBatchInto(dst []bool, keys [][]byte, hashes []uint64) {
	for i, h := range hashes[:len(keys)] {
		dst[i] = b.f.ContainsHash(h)
	}
}

// dedupe drops repeated keys, preserving first-seen order. Peeling fails
// permanently on duplicates, and the shard layer legitimately produces
// them (an Add of an existing member lands in the positives list again),
// so the backend dedupes rather than pushing the invariant upstream.
func dedupe(keys [][]byte) [][]byte {
	seen := make(map[string]struct{}, len(keys))
	out := keys[:0:0]
	for _, k := range keys {
		if _, dup := seen[string(k)]; dup {
			continue
		}
		seen[string(k)] = struct{}{}
		out = append(out, k)
	}
	return out
}

func init() {
	Register(Factory{
		Name:      "xor",
		Kind:      KindXor,
		Static:    true,
		InnerName: func(habf.Params) string { return "Xor" },
		TuningSchema: NewSchema(
			Knob{Name: "width", Type: KnobInt, Min: 0, Max: 32,
				Default: "0", Doc: "fingerprint width in bits; 0 derives ⌊b/(1.23+32/n)⌋ from the bits-per-key budget"},
		),
		Build: func(positives [][]byte, _ []habf.WeightedKey, cfg BuildConfig) (Backend, error) {
			unique := dedupe(positives)
			var f *xorfilter.Filter
			var err error
			if width := cfg.Tuning.Int("width"); width > 0 {
				f, err = xorfilter.New(unique, uint(width))
			} else {
				bitsPerKey := float64(cfg.TotalBits) / float64(len(positives))
				f, err = xorfilter.NewWithBudget(unique, bitsPerKey)
			}
			if err != nil {
				return nil, err
			}
			return &xorBackend{f: f}, nil
		},
		Unmarshal: func(data []byte) (Backend, error) {
			f, err := xorfilter.UnmarshalFilter(data)
			if err != nil {
				return nil, err
			}
			return &xorBackend{f: f}, nil
		},
		UnmarshalBorrow: func(data []byte) (Backend, error) {
			f, err := xorfilter.UnmarshalFilterBorrow(data)
			if err != nil {
				return nil, err
			}
			return &xorBackend{f: f}, nil
		},
	})
}
