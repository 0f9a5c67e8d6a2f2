package bloom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func allStrategies() []Strategy {
	return []Strategy{StrategyCorpus, StrategySeeded64, StrategySplit128}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3, StrategyCorpus); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := New(100, 0, StrategyCorpus); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(100, 23, StrategyCorpus); err == nil {
		t.Error("k beyond corpus size accepted for corpus strategy")
	}
	if _, err := New(100, 23, StrategySeeded64); err != nil {
		t.Error("seeded strategy should allow k beyond corpus size")
	}
}

func TestNewWithKeysEmpty(t *testing.T) {
	if _, err := NewWithKeys(nil, 10, StrategyCorpus); err == nil {
		t.Error("empty key set accepted")
	}
}

func TestNoFalseNegatives(t *testing.T) {
	for _, s := range allStrategies() {
		t.Run(s.String(), func(t *testing.T) {
			keys := make([][]byte, 5000)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("positive-%d", i))
			}
			f, err := NewWithKeys(keys, 10, s)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if !f.Contains(k) {
					t.Fatalf("false negative for %q", k)
				}
			}
		})
	}
}

func TestFPRNearTheory(t *testing.T) {
	const (
		n          = 20000
		bitsPerKey = 10.0
	)
	for _, s := range allStrategies() {
		t.Run(s.String(), func(t *testing.T) {
			keys := make([][]byte, n)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("member/%d", i))
			}
			f, err := NewWithKeys(keys, bitsPerKey, s)
			if err != nil {
				t.Fatal(err)
			}
			fp := 0
			const probes = 50000
			for i := 0; i < probes; i++ {
				if f.Contains([]byte(fmt.Sprintf("outsider/%d", i))) {
					fp++
				}
			}
			got := float64(fp) / probes
			want := TheoreticalFPR(bitsPerKey, f.K())
			// Allow a generous 3x band plus an absolute floor — we check
			// the filter is not broken, not that it is textbook-exact.
			if got > want*3+0.005 {
				t.Errorf("FPR = %.4f, theory %.4f (too high)", got, want)
			}
		})
	}
}

func TestOptimalK(t *testing.T) {
	cases := []struct {
		b    float64
		want int
	}{
		{10, 7}, {8, 6}, {1, 1}, {0.1, 1}, {100, 30},
	}
	for _, c := range cases {
		if got := OptimalK(c.b); got != c.want {
			t.Errorf("OptimalK(%v) = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestTheoreticalFPRMonotone(t *testing.T) {
	// More bits per key (fixed k) must not increase FPR.
	prev := 1.0
	for b := 2.0; b <= 20; b++ {
		f := TheoreticalFPR(b, 4)
		if f > prev {
			t.Fatalf("TheoreticalFPR not monotone at b=%v", b)
		}
		prev = f
	}
	if TheoreticalFPR(0, 4) != 1 {
		t.Error("b<=0 should give FPR 1")
	}
	// k = ln2·b should be near the optimum 0.6185^b.
	b := 9.6
	got := TheoreticalFPR(b, OptimalK(b))
	want := math.Pow(0.6185, b)
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("optimal FPR %.6f deviates from 0.6185^b = %.6f", got, want)
	}
}

func TestStrategiesDisagree(t *testing.T) {
	// The three strategies must place keys differently (otherwise Fig. 14
	// could not distinguish them).
	keys := make([][]byte, 200)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("strat-%d", i))
	}
	fills := map[string]float64{}
	for _, s := range allStrategies() {
		f, err := New(4096, 4, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			f.Add(k)
		}
		fills[s.String()] = f.FillRatio()
	}
	// All fill ratios should be close (same number of set operations) but
	// the bit patterns differ; verify via membership disagreement.
	fa, _ := New(4096, 4, StrategyCorpus)
	fb, _ := New(4096, 4, StrategySeeded64)
	for _, k := range keys {
		fa.Add(k)
		fb.Add(k)
	}
	disagree := 0
	for i := 0; i < 2000; i++ {
		q := []byte(fmt.Sprintf("probe-%d", i))
		if fa.Contains(q) != fb.Contains(q) {
			disagree++
		}
	}
	if disagree == 0 {
		t.Error("corpus and seeded strategies never disagree on probes; suspicious")
	}
}

func TestAccessors(t *testing.T) {
	f, err := New(1000, 5, StrategySeeded64)
	if err != nil {
		t.Fatal(err)
	}
	if f.K() != 5 || f.MBits() != 1000 {
		t.Error("K/MBits wrong")
	}
	if f.SizeBits() < 1000 {
		t.Error("SizeBits below logical size")
	}
	if f.Count() != 0 {
		t.Error("fresh Count != 0")
	}
	f.Add([]byte("x"))
	if f.Count() != 1 {
		t.Error("Count after Add != 1")
	}
	if f.Name() != "BF(City64)" {
		t.Errorf("Name = %q", f.Name())
	}
}

// Property: Add(k) ⇒ Contains(k), for every strategy and arbitrary keys.
func TestQuickNoFalseNegatives(t *testing.T) {
	for _, s := range allStrategies() {
		s := s
		f := func(keys [][]byte) bool {
			if len(keys) == 0 {
				return true
			}
			fl, err := New(8192, 4, s)
			if err != nil {
				return false
			}
			for _, k := range keys {
				fl.Add(k)
			}
			for _, k := range keys {
				if !fl.Contains(k) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
}

func TestFillRatioGrowth(t *testing.T) {
	f, _ := New(1<<14, 4, StrategySplit128)
	prev := 0.0
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		f.Add([]byte(fmt.Sprintf("g-%d-%d", i, rng.Int63())))
		if r := f.FillRatio(); r < prev {
			t.Fatal("fill ratio decreased after Add")
		} else {
			prev = r
		}
	}
	if prev == 0 {
		t.Fatal("fill ratio stayed zero after 1000 inserts")
	}
}

func BenchmarkAdd(b *testing.B) {
	for _, s := range allStrategies() {
		b.Run(s.String(), func(b *testing.B) {
			f, _ := New(1<<24, 7, s)
			key := []byte("http://example.com/benchmark/key/0123456789")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.Add(key)
			}
		})
	}
}

func BenchmarkContains(b *testing.B) {
	for _, s := range allStrategies() {
		b.Run(s.String(), func(b *testing.B) {
			keys := make([][]byte, 100000)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("bench/%d", i))
			}
			f, _ := NewWithKeys(keys, 10, s)
			b.ReportAllocs()
			var hits int
			for i := 0; i < b.N; i++ {
				if f.Contains(keys[i%len(keys)]) {
					hits++
				}
			}
			_ = hits
		})
	}
}

func TestAddKContainsK(t *testing.T) {
	f, err := New(1<<14, 10, StrategySplit128)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("variable-k")
	f.AddK(key, 4)
	if !f.ContainsK(key, 4) {
		t.Fatal("AddK(4) not found by ContainsK(4)")
	}
	// Fewer positions are a subset: still found.
	if !f.ContainsK(key, 2) {
		t.Fatal("ContainsK with smaller k must still pass")
	}
	// k above the filter's configured k is clamped, not a panic.
	f.AddK(key, 99)
	if !f.ContainsK(key, 99) {
		t.Fatal("clamped k mismatch")
	}
}

func TestAddKDisjointCounts(t *testing.T) {
	// Keys inserted with a large k must be rejected more often when the
	// query uses an even larger k over unset positions.
	f, _ := New(1<<12, 12, StrategySplit128)
	for i := 0; i < 200; i++ {
		f.AddK([]byte(fmt.Sprintf("k4/%d", i)), 4)
	}
	fp8, fp4 := 0, 0
	for i := 0; i < 2000; i++ {
		q := []byte(fmt.Sprintf("probe/%d", i))
		if f.ContainsK(q, 4) {
			fp4++
		}
		if f.ContainsK(q, 8) {
			fp8++
		}
	}
	if fp8 > fp4 {
		t.Errorf("more positions should not increase FPs: k8=%d k4=%d", fp8, fp4)
	}
}
