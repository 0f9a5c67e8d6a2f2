package filtercore

import (
	"repro/internal/habf"
	"repro/internal/learned"
)

// The learned filter family (LBF, SLBF, Ada-BF) served through the
// backend abstraction. These are the first backends whose build cost is
// dominated by training rather than hashing, so rebuilds are orders of
// magnitude slower than queries; they are registered as static (a
// trained model cannot absorb single-key inserts — the shard layer
// buffers pending keys until a rebuild retrains).
//
// Training is seed-deterministic and the seed is a tuning knob, so a
// snapshot-restored set rebuilt with the same keys and knobs reproduces
// the same filter bit-for-bit.

// KindLBF, KindSLBF and KindAdaBF extend the append-only wire kinds in
// filtercore.go.
const (
	KindLBF   Kind = 5
	KindSLBF  Kind = 6
	KindAdaBF Kind = 7
)

// learnedFilter is what the three learned families already implement.
type learnedFilter interface {
	Contains(key []byte) bool
	Name() string
	SizeBits() uint64
	MarshalBinary() ([]byte, error)
	WireAlignOffset() int
	Borrowed() bool
}

type learnedBackend struct {
	f    learnedFilter
	kind Kind
}

var _ Backend = (*learnedBackend)(nil)

func (b *learnedBackend) Contains(key []byte) bool       { return b.f.Contains(key) }
func (b *learnedBackend) Add([]byte) error               { return ErrStaticBackend }
func (b *learnedBackend) Name() string                   { return b.f.Name() }
func (b *learnedBackend) SizeBits() uint64               { return b.f.SizeBits() }
func (b *learnedBackend) Kind() Kind                     { return b.kind }
func (b *learnedBackend) MarshalBinary() ([]byte, error) { return b.f.MarshalBinary() }
func (b *learnedBackend) WireAlignOffset() int           { return b.f.WireAlignOffset() }
func (b *learnedBackend) Borrowed() bool                 { return b.f.Borrowed() }

// ContainsBatchInto implements PreparedQuerier. The model scores key
// bytes, so the base hashes are ignored and every key is probed in turn.
func (b *learnedBackend) ContainsBatchInto(dst []bool, keys [][]byte, _ []uint64) {
	for i, key := range keys {
		dst[i] = b.f.Contains(key)
	}
}

// learnedServeOptions maps the validated knob set onto the learned
// package's serve options.
func learnedServeOptions(t Tuning) learned.ServeOptions {
	return learned.ServeOptions{
		Model:  t.Value("model"),
		Epochs: t.Int("epochs"),
		Seed:   int64(t.Int("seed")),
		Split:  t.Float("split"),
		Groups: t.Int("groups"),
	}
}

// learnedKnobs are the knobs shared by all three families. The families
// ignore a knob their schema omits (Tuning returns zero values), so the
// helper lists only the common set.
func learnedKnobs(extra ...Knob) []Knob {
	common := []Knob{
		{Name: "model", Type: KnobEnum, Enum: []string{"logistic", "gru"},
			Default: "logistic", Doc: "classifier family: hashed-trigram logistic regression or the paper's 16-dim character GRU (×100 build cost)"},
		{Name: "epochs", Type: KnobInt, Min: 0, Max: 64,
			Default: "0", Doc: "SGD epochs; 0 derives the family default (6 logistic, 2 gru)"},
		{Name: "seed", Type: KnobInt, Min: 1, Max: 1 << 31,
			Default: "1", Doc: "training RNG seed; pinned in tuning so restored sets rebuild bit-identically"},
	}
	return append(common, extra...)
}

// keysOf strips the misidentification costs off the negative sample: the
// learned models train on unweighted labels.
func keysOf(negatives []habf.WeightedKey) [][]byte {
	out := make([][]byte, len(negatives))
	for i, n := range negatives {
		out[i] = n.Key
	}
	return out
}

func init() {
	Register(Factory{
		Name:         "lbf",
		Kind:         KindLBF,
		Static:       true,
		InnerName:    func(habf.Params) string { return "LBF" },
		TuningSchema: NewSchema(learnedKnobs()...),
		Build: func(positives [][]byte, negatives []habf.WeightedKey, cfg BuildConfig) (Backend, error) {
			f, err := learned.BuildLBF(positives, keysOf(negatives), cfg.TotalBits, learnedServeOptions(cfg.Tuning))
			if err != nil {
				return nil, err
			}
			return &learnedBackend{f: f, kind: KindLBF}, nil
		},
		Unmarshal: func(data []byte) (Backend, error) {
			f, err := learned.UnmarshalLBF(data)
			if err != nil {
				return nil, err
			}
			return &learnedBackend{f: f, kind: KindLBF}, nil
		},
		UnmarshalBorrow: func(data []byte) (Backend, error) {
			f, err := learned.UnmarshalLBFBorrow(data)
			if err != nil {
				return nil, err
			}
			return &learnedBackend{f: f, kind: KindLBF}, nil
		},
	})

	Register(Factory{
		Name:      "slbf",
		Kind:      KindSLBF,
		Static:    true,
		InnerName: func(habf.Params) string { return "SLBF" },
		TuningSchema: NewSchema(learnedKnobs(
			Knob{Name: "split", Type: KnobFloat, Min: 0.05, Max: 0.95,
				Default: "0.5", Doc: "fraction of the non-model budget spent on the initial (pre-model) bloom filter"},
		)...),
		Build: func(positives [][]byte, negatives []habf.WeightedKey, cfg BuildConfig) (Backend, error) {
			f, err := learned.BuildSLBF(positives, keysOf(negatives), cfg.TotalBits, learnedServeOptions(cfg.Tuning))
			if err != nil {
				return nil, err
			}
			return &learnedBackend{f: f, kind: KindSLBF}, nil
		},
		Unmarshal: func(data []byte) (Backend, error) {
			f, err := learned.UnmarshalSLBF(data)
			if err != nil {
				return nil, err
			}
			return &learnedBackend{f: f, kind: KindSLBF}, nil
		},
		UnmarshalBorrow: func(data []byte) (Backend, error) {
			f, err := learned.UnmarshalSLBFBorrow(data)
			if err != nil {
				return nil, err
			}
			return &learnedBackend{f: f, kind: KindSLBF}, nil
		},
	})

	Register(Factory{
		Name:      "adabf",
		Kind:      KindAdaBF,
		Static:    true,
		InnerName: func(habf.Params) string { return "Ada-BF" },
		TuningSchema: NewSchema(learnedKnobs(
			Knob{Name: "groups", Type: KnobInt, Min: 2, Max: 16,
				Default: "4", Doc: "score groups g; lower-score groups probe more hash positions"},
		)...),
		Build: func(positives [][]byte, negatives []habf.WeightedKey, cfg BuildConfig) (Backend, error) {
			f, err := learned.BuildAdaBF(positives, keysOf(negatives), cfg.TotalBits, learnedServeOptions(cfg.Tuning))
			if err != nil {
				return nil, err
			}
			return &learnedBackend{f: f, kind: KindAdaBF}, nil
		},
		Unmarshal: func(data []byte) (Backend, error) {
			f, err := learned.UnmarshalAdaBF(data)
			if err != nil {
				return nil, err
			}
			return &learnedBackend{f: f, kind: KindAdaBF}, nil
		},
		UnmarshalBorrow: func(data []byte) (Backend, error) {
			f, err := learned.UnmarshalAdaBFBorrow(data)
			if err != nil {
				return nil, err
			}
			return &learnedBackend{f: f, kind: KindAdaBF}, nil
		},
	})
}
