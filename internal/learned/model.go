// Package learned implements the learning-based baselines of the paper's
// evaluation: Learned Bloom filter (LBF, Kraska et al.), Sandwiched LBF
// (SLBF, Mitzenmacher) and Adaptive LBF (Ada-BF, Dai & Shrivastava).
//
// The paper's Keras GRU/DNN classifiers are replaced with a from-scratch
// stdlib-only classifier: logistic regression over hashed byte-trigram
// features, trained with SGD. The substitution preserves everything the
// experiments measure: a per-key score in [0,1], good separation on
// structured keys (Shalla) and chance separation on random keys (YCSB),
// a construction cost dominated by training, and a query cost dominated
// by model evaluation. The serialized model size is charged against the
// space budget exactly as the paper does.
package learned

import (
	"math"
	"math/rand"
)

// featureDim is the hashed feature-space dimensionality. 512 trigram
// buckets keep the model at ~2 KiB — the same order as the paper's
// 16-dimensional character GRU — so it fits comfortably inside even the
// smallest space budgets of the evaluation.
const featureDim = 512

// featurize hashes byte trigrams plus whole alphabetic tokens (maximal
// letter runs of length >= 3) of key into sparse feature indices. Token
// features carry most of the signal on URL-like keys; trigrams keep the
// representation usable on arbitrary binary keys.
func featurize(key []byte, dst []uint16) []uint16 {
	if len(key) == 0 {
		return append(dst, 0)
	}
	dst = append(dst, uint16(len(key)%64)) // crude length bucket
	var h uint32
	for i := 0; i+2 < len(key); i++ {
		h = 2166136261
		h = (h ^ uint32(key[i])) * 16777619
		h = (h ^ uint32(key[i+1])) * 16777619
		h = (h ^ uint32(key[i+2])) * 16777619
		dst = append(dst, uint16(h%featureDim))
	}
	// Alphabetic token features, weighted ×4 by repetition so they
	// dominate the trigram noise from serial numbers.
	start := -1
	emit := func(from, to int) {
		if to-from < 3 {
			return
		}
		t := uint32(2166136261)
		for _, b := range key[from:to] {
			t = (t ^ uint32(b|0x20)) * 16777619 // case-folded
		}
		idx := uint16(t % featureDim)
		dst = append(dst, idx, idx, idx, idx)
	}
	for i, b := range key {
		isAlpha := (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
		if isAlpha && start < 0 {
			start = i
		}
		if !isAlpha && start >= 0 {
			emit(start, i)
			start = -1
		}
	}
	if start >= 0 {
		emit(start, len(key))
	}
	return dst
}

// Model scores keys: higher means "more likely a member of S".
type Model interface {
	// Score returns a value in [0,1].
	Score(key []byte) float64
	// SizeBits is the serialized parameter footprint charged against the
	// filter's space budget.
	SizeBits() uint64
}

// Logistic is an L2-regularized logistic-regression model over hashed
// trigram features.
type Logistic struct {
	w    []float32
	bias float32
}

// logisticLR is the logistic model's SGD step.
const logisticLR = 0.6

// TrainConfig tunes SGD.
type TrainConfig struct {
	Epochs int   // default 6
	Seed   int64 // default 1
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 6
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func sigmoid(z float64) float64 {
	switch {
	case z > 30:
		return 1
	case z < -30:
		return 0
	default:
		return 1 / (1 + math.Exp(-z))
	}
}

// TrainLogistic fits a logistic model labelling positives 1 and negatives
// 0 with plain SGD over shuffled examples.
func TrainLogistic(positives, negatives [][]byte, cfg TrainConfig) *Logistic {
	cfg = cfg.withDefaults()
	m := &Logistic{w: make([]float32, featureDim)}
	rng := rand.New(rand.NewSource(cfg.Seed))

	type example struct {
		key   []byte
		label float64
	}
	examples := make([]example, 0, len(positives)+len(negatives))
	for _, k := range positives {
		examples = append(examples, example{k, 1})
	}
	for _, k := range negatives {
		examples = append(examples, example{k, 0})
	}

	var feat []uint16
	lr := logisticLR
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(examples), func(i, j int) {
			examples[i], examples[j] = examples[j], examples[i]
		})
		for _, ex := range examples {
			feat = featurize(ex.key, feat[:0])
			p := m.score(feat)
			g := float32((p - ex.label) * lr)
			inv := float32(1.0 / float64(len(feat)))
			for _, idx := range feat {
				m.w[idx] -= g * inv
			}
			m.bias -= g
		}
		lr *= 0.7 // simple decay
	}
	return m
}

func (m *Logistic) score(feat []uint16) float64 {
	var z float32
	inv := float32(1.0 / float64(len(feat)))
	for _, idx := range feat {
		z += m.w[idx] * inv
	}
	z += m.bias
	return sigmoid(float64(z))
}

// Score returns the membership probability estimate for key.
func (m *Logistic) Score(key []byte) float64 {
	var buf [128]uint16
	return m.score(featurize(key, buf[:0]))
}

// SizeBits charges 32 bits per parameter (float32 weights + bias).
func (m *Logistic) SizeBits() uint64 {
	return uint64(len(m.w)+1) * 32
}
