package learned

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
)

func shallaSmall() ([][]byte, [][]byte) {
	p := dataset.Shalla(6000, 6000, 1)
	return p.Positives, p.Negatives
}

func ycsbSmall() ([][]byte, [][]byte) {
	p := dataset.YCSB(6000, 6000, 1)
	return p.Positives, p.Negatives
}

// auc estimates the ranking quality of a model: probability that a random
// positive outscores a random negative (sampled pairing).
func auc(m Model, pos, neg [][]byte) float64 {
	wins, ties, n := 0.0, 0.0, 0
	for i := 0; i < len(pos) && i < len(neg); i++ {
		sp, sn := m.Score(pos[i]), m.Score(neg[i])
		switch {
		case sp > sn:
			wins++
		case sp == sn:
			ties++
		}
		n++
	}
	return (wins + ties/2) / float64(n)
}

func TestLogisticLearnsStructuredKeys(t *testing.T) {
	pos, neg := shallaSmall()
	m := TrainLogistic(pos, neg, TrainConfig{})
	if got := auc(m, pos, neg); got < 0.80 {
		t.Errorf("AUC on Shalla = %.3f, want >= 0.80 (dataset has evident characteristics)", got)
	}
}

func TestLogisticCannotLearnRandomKeys(t *testing.T) {
	// On training keys the model can memorize trigram buckets even of
	// random keys, so generalization is what distinguishes the datasets:
	// train on half, measure AUC on the held-out half.
	pos, neg := ycsbSmall()
	m := TrainLogistic(pos[:3000], neg[:3000], TrainConfig{})
	got := auc(m, pos[3000:], neg[3000:])
	if got > 0.60 || got < 0.40 {
		t.Errorf("holdout AUC on YCSB = %.3f; random keys should be unlearnable (≈0.5)", got)
	}
	// Contrast: Shalla holdout AUC stays high.
	sp, sn := shallaSmall()
	ms := TrainLogistic(sp[:3000], sn[:3000], TrainConfig{})
	if g := auc(ms, sp[3000:], sn[3000:]); g < 0.75 {
		t.Errorf("holdout AUC on Shalla = %.3f, want >= 0.75", g)
	}
}

func TestModelSizes(t *testing.T) {
	pos, neg := shallaSmall()
	lg := TrainLogistic(pos[:500], neg[:500], TrainConfig{Epochs: 1})
	if lg.SizeBits() != (featureDim+1)*32 {
		t.Errorf("logistic SizeBits = %d", lg.SizeBits())
	}
}

func TestScoreRange(t *testing.T) {
	pos, neg := shallaSmall()
	m := TrainLogistic(pos[:2000], neg[:2000], TrainConfig{})
	for _, k := range append(pos[:100], neg[:100]...) {
		s := m.Score(k)
		if s < 0 || s > 1 {
			t.Fatalf("score %v out of [0,1] for %q", s, k)
		}
	}
	if m.Score(nil) < 0 || m.Score(nil) > 1 {
		t.Fatal("empty key score out of range")
	}
}

func TestFeaturizeStability(t *testing.T) {
	key := []byte("http://casino-bet42.com/index/7")
	a := featurize(key, nil)
	b := featurize(key, nil)
	if len(a) != len(b) {
		t.Fatal("featurize not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("featurize not deterministic")
		}
	}
	for _, idx := range a {
		if int(idx) >= featureDim {
			t.Fatalf("feature index %d out of range", idx)
		}
	}
}

func testAllLearnedZeroFNR(t *testing.T, build func(pos, neg [][]byte, bits uint64) (interface {
	Contains([]byte) bool
	Name() string
	SizeBits() uint64
}, error)) {
	t.Helper()
	pos, neg := shallaSmall()
	budget := uint64(len(pos)) * 12
	f, err := build(pos, neg, budget)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range pos {
		if !f.Contains(k) {
			t.Fatalf("%s: false negative for %q", f.Name(), k)
		}
	}
	// Budget adherence (allow ~2% slack for word alignment).
	if f.SizeBits() > budget+budget/50+512 {
		t.Errorf("%s: SizeBits %d exceeds budget %d", f.Name(), f.SizeBits(), budget)
	}
	// It must actually filter: a majority of known negatives rejected.
	fp := 0
	for _, k := range neg {
		if f.Contains(k) {
			fp++
		}
	}
	rate := float64(fp) / float64(len(neg))
	if rate > 0.2 {
		t.Errorf("%s: FPR on known negatives %.3f, not a useful filter", f.Name(), rate)
	}
	t.Logf("%s: FPR %.4f, size %d bits (budget %d)", f.Name(), rate, f.SizeBits(), budget)
}

func TestLBFZeroFNR(t *testing.T) {
	testAllLearnedZeroFNR(t, func(p, n [][]byte, b uint64) (interface {
		Contains([]byte) bool
		Name() string
		SizeBits() uint64
	}, error) {
		return NewLBF(p, n, b, TrainConfig{})
	})
}

func TestSLBFZeroFNR(t *testing.T) {
	testAllLearnedZeroFNR(t, func(p, n [][]byte, b uint64) (interface {
		Contains([]byte) bool
		Name() string
		SizeBits() uint64
	}, error) {
		return NewSLBF(p, n, b, TrainConfig{})
	})
}

func TestAdaBFZeroFNR(t *testing.T) {
	testAllLearnedZeroFNR(t, func(p, n [][]byte, b uint64) (interface {
		Contains([]byte) bool
		Name() string
		SizeBits() uint64
	}, error) {
		return NewAdaBF(p, n, b, TrainConfig{})
	})
}

func TestBudgetTooSmallForModel(t *testing.T) {
	pos, neg := shallaSmall()
	if _, err := NewLBF(pos[:100], neg[:100], 1000, TrainConfig{}); err == nil {
		t.Error("budget below model size accepted (LBF)")
	}
	if _, err := NewSLBF(pos[:100], neg[:100], 1000, TrainConfig{}); err == nil {
		t.Error("budget below model size accepted (SLBF)")
	}
	if _, err := NewAdaBF(pos[:100], neg[:100], 1000, TrainConfig{}); err == nil {
		t.Error("budget below model size accepted (Ada-BF)")
	}
}

func TestLearnedBeatsBloomOnStructuredKeys(t *testing.T) {
	// The paper's Fig. 10(b): with evident characteristics and a modest
	// budget, learned filters reach lower FPR than the plain Bloom filter.
	pos, neg := shallaSmall()
	budget := uint64(len(pos)) * 8
	lbf, err := NewLBF(pos, neg, budget, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fp := 0
	for _, k := range neg {
		if lbf.Contains(k) {
			fp++
		}
	}
	lbfFPR := float64(fp) / float64(len(neg))
	bloomFPR := 0.0216 // (1-e^-k/b)^k at b=8,k=6 ≈ 2.16%
	t.Logf("LBF FPR %.4f vs theoretical BF %.4f at 8 bits/key", lbfFPR, bloomFPR)
	if lbfFPR > bloomFPR*2 {
		t.Errorf("LBF FPR %.4f not competitive with Bloom %.4f on structured keys", lbfFPR, bloomFPR)
	}
}

func TestAdaBFGroups(t *testing.T) {
	pos, neg := shallaSmall()
	a, err := NewAdaBF(pos, neg, uint64(len(pos))*12, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.boundaries) != adaGroups-1 || len(a.ks) != adaGroups {
		t.Fatalf("groups misconfigured: %d boundaries, %d ks", len(a.boundaries), len(a.ks))
	}
	for g := 1; g < adaGroups; g++ {
		if a.ks[g] > a.ks[g-1] {
			t.Errorf("hash count must not increase with score: ks=%v", a.ks)
		}
	}
	for i := 1; i < len(a.boundaries); i++ {
		if a.boundaries[i] < a.boundaries[i-1] {
			t.Errorf("boundaries not ascending: %v", a.boundaries)
		}
	}
}

func BenchmarkTrainLogistic(b *testing.B) {
	p := dataset.Shalla(5000, 5000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TrainLogistic(p.Positives, p.Negatives, TrainConfig{})
	}
}

func BenchmarkLBFContains(b *testing.B) {
	p := dataset.Shalla(5000, 5000, 1)
	f, err := NewLBF(p.Positives, p.Negatives, 5000*12, TrainConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Contains(p.Negatives[i%len(p.Negatives)])
	}
}

func ExampleNewLBF() {
	p := dataset.Shalla(2000, 2000, 1)
	f, err := NewLBF(p.Positives, p.Negatives, 2000*16, TrainConfig{})
	if err != nil {
		panic(err)
	}
	fmt.Println(f.Contains(p.Positives[0]))
	// Output: true
}
