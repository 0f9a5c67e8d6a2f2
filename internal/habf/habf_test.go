package habf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func genKeys(n int, tag string) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%s/%d", tag, i))
	}
	return keys
}

func genNegatives(n int, tag string, costs func(i int) float64) []WeightedKey {
	out := make([]WeightedKey, n)
	for i := range out {
		out[i] = WeightedKey{Key: []byte(fmt.Sprintf("%s/%d", tag, i)), Cost: costs(i)}
	}
	return out
}

func uniformCost(int) float64 { return 1 }

func TestNewValidation(t *testing.T) {
	pos := genKeys(10, "p")
	neg := genNegatives(10, "n", uniformCost)
	if _, err := New(nil, neg, Params{TotalBits: 1 << 16}); err == nil {
		t.Error("empty positives accepted")
	}
	if _, err := New(pos, neg, Params{TotalBits: 10}); err == nil {
		t.Error("tiny budget accepted")
	}
	if _, err := New(pos, neg, Params{TotalBits: 1 << 16, K: 99}); err == nil {
		t.Error("k beyond family accepted")
	}
	if _, err := New(pos, neg, Params{TotalBits: 1 << 16, CellBits: 9}); err == nil {
		t.Error("cell size 9 accepted")
	}
	for _, c := range []float64{-1, math.NaN(), math.Inf(1)} {
		bad := []WeightedKey{{Key: []byte("x"), Cost: c}}
		if _, err := New(pos, bad, Params{TotalBits: 1 << 16}); err == nil {
			t.Errorf("cost %v accepted", c)
		}
	}
	if _, err := New(pos, neg, Params{TotalBits: 1 << 16, SpaceRatio: 1.5}); err == nil {
		t.Error("SpaceRatio >= 1 accepted")
	}
}

// The fundamental invariant: zero false negatives, regardless of how
// aggressively TPJO rewired hash selections.
func TestZeroFalseNegatives(t *testing.T) {
	for _, fast := range []bool{false, true} {
		t.Run(fmt.Sprintf("fast=%v", fast), func(t *testing.T) {
			pos := genKeys(5000, "member")
			neg := genNegatives(5000, "outsider", uniformCost)
			f, err := New(pos, neg, Params{TotalBits: 5000 * 12, Fast: fast})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range pos {
				if !f.Contains(k) {
					t.Fatalf("false negative for %q (stats %+v)", k, f.Stats())
				}
			}
		})
	}
}

func TestOptimizationReducesFPR(t *testing.T) {
	pos := genKeys(8000, "member")
	neg := genNegatives(8000, "outsider", uniformCost)
	f, err := New(pos, neg, Params{TotalBits: 8000 * 10})
	if err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.CollisionKeys == 0 {
		t.Skip("no collision keys at this size; nothing to optimize")
	}
	if st.FPRAfter > st.FPRBefore {
		t.Errorf("optimization increased FPR: before %.5f after %.5f", st.FPRBefore, st.FPRAfter)
	}
	if st.Optimized == 0 {
		t.Errorf("no collision keys optimized out of %d", st.CollisionKeys)
	}
	// Known negatives should now largely test negative.
	fp := 0
	for _, n := range neg {
		if f.Contains(n.Key) {
			fp++
		}
	}
	got := float64(fp) / float64(len(neg))
	if got > st.FPRBefore {
		t.Errorf("two-round FPR %.5f exceeds unoptimized Bloom FPR %.5f", got, st.FPRBefore)
	}
	t.Logf("stats: %+v, final two-round FPR on known negatives: %.5f", st, got)
}

func TestCostPrioritization(t *testing.T) {
	// With highly skewed costs, the weighted FPR must drop much more than
	// the unweighted FPR: expensive keys are optimized first.
	pos := genKeys(12000, "member")
	neg := genNegatives(12000, "outsider", func(i int) float64 {
		if i%100 == 0 {
			return 1000
		}
		return 1
	})
	f, err := New(pos, neg, Params{TotalBits: 12000 * 8})
	if err != nil {
		t.Fatal(err)
	}
	// Weighted FPR over the final two-round filter.
	var fpCost, totalCost float64
	for _, n := range neg {
		totalCost += n.Cost
		if f.Contains(n.Key) {
			fpCost += n.Cost
		}
	}
	weighted := fpCost / totalCost
	st := f.Stats()
	if st.CollisionKeys == 0 {
		t.Skip("no collisions to optimize")
	}
	if weighted > st.WeightedFPRBefore {
		t.Errorf("weighted FPR did not improve: %.6f -> %.6f", st.WeightedFPRBefore, weighted)
	}
	t.Logf("weighted FPR %.6f -> %.6f, plain %.6f -> %.6f",
		st.WeightedFPRBefore, weighted, st.FPRBefore, st.FPRAfter)
}

func TestDeterministicConstruction(t *testing.T) {
	pos := genKeys(2000, "p")
	neg := genNegatives(2000, "n", uniformCost)
	build := func() *Filter {
		f, err := New(pos, neg, Params{TotalBits: 2000 * 10, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := build(), build()
	if a.Stats() != b.Stats() {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", a.Stats(), b.Stats())
	}
	for i := 0; i < 5000; i++ {
		q := []byte(fmt.Sprintf("probe-%d", i))
		if a.Contains(q) != b.Contains(q) {
			t.Fatal("same seed, different membership answers")
		}
	}
}

func TestSeedChangesH0(t *testing.T) {
	// With k=3 of 7 usable functions there are only 35 sorted subsets, so
	// two particular seeds may legitimately collide; require that a batch
	// of seeds produces at least two distinct selections.
	pos := genKeys(100, "p")
	seen := map[string]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		f, err := New(pos, nil, Params{TotalBits: 1 << 14, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		seen[fmt.Sprint(f.h0)] = true
	}
	if len(seen) < 2 {
		t.Errorf("8 different seeds all chose the same H0 %v", seen)
	}
}

func TestEmptyNegativesIsPlainBloom(t *testing.T) {
	pos := genKeys(3000, "p")
	f, err := New(pos, nil, Params{TotalBits: 3000 * 10})
	if err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.CollisionKeys != 0 || st.AdjustedPositives != 0 || st.HashExpressorInserts != 0 {
		t.Errorf("no negatives but TPJO did work: %+v", st)
	}
	for _, k := range pos {
		if !f.Contains(k) {
			t.Fatal("false negative without negatives")
		}
	}
}

func TestSingleKeySets(t *testing.T) {
	f, err := New([][]byte{[]byte("only")},
		[]WeightedKey{{Key: []byte("nope"), Cost: 5}}, Params{TotalBits: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Contains([]byte("only")) {
		t.Fatal("singleton member lost")
	}
	if f.Contains([]byte("nope")) {
		t.Log("known negative still positive (allowed but unexpected at this size)")
	}
}

func TestOverlappingPositiveNegative(t *testing.T) {
	// S ∩ O ≠ ∅ violates the problem definition but must not break
	// zero-FNR or crash.
	pos := genKeys(1000, "both")
	neg := make([]WeightedKey, 0, 1000)
	for i := 0; i < 1000; i++ {
		neg = append(neg, WeightedKey{Key: []byte(fmt.Sprintf("both/%d", i)), Cost: 10})
	}
	f, err := New(pos, neg, Params{TotalBits: 1000 * 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range pos {
		if !f.Contains(k) {
			t.Fatal("member lost when S ∩ O ≠ ∅")
		}
	}
}

func TestDuplicatePositives(t *testing.T) {
	pos := append(genKeys(500, "dup"), genKeys(500, "dup")...)
	neg := genNegatives(500, "n", uniformCost)
	f, err := New(pos, neg, Params{TotalBits: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range pos {
		if !f.Contains(k) {
			t.Fatal("duplicate positive lost")
		}
	}
}

func TestSizeBitsWithinBudget(t *testing.T) {
	pos := genKeys(4000, "p")
	neg := genNegatives(4000, "n", uniformCost)
	total := uint64(4000 * 10)
	f, err := New(pos, neg, Params{TotalBits: total})
	if err != nil {
		t.Fatal(err)
	}
	// Allow word-alignment slack on both component arrays.
	if f.SizeBits() > total+256 {
		t.Errorf("SizeBits %d exceeds budget %d", f.SizeBits(), total)
	}
	if f.BloomBits() == 0 {
		t.Error("BloomBits = 0")
	}
}

func TestNames(t *testing.T) {
	pos := genKeys(100, "p")
	f, _ := New(pos, nil, Params{TotalBits: 1 << 14})
	if f.Name() != "HABF" {
		t.Errorf("Name = %q", f.Name())
	}
	ff, _ := NewFast(pos, nil, Params{TotalBits: 1 << 14})
	if ff.Name() != "f-HABF" {
		t.Errorf("fast Name = %q", ff.Name())
	}
	if f.K() != 3 {
		t.Errorf("default K = %d, want 3", f.K())
	}
}

func TestFastVsSlowBothWork(t *testing.T) {
	pos := genKeys(6000, "p")
	neg := genNegatives(6000, "n", uniformCost)
	slow, err := New(pos, neg, Params{TotalBits: 6000 * 10})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewFast(pos, neg, Params{TotalBits: 6000 * 10})
	if err != nil {
		t.Fatal(err)
	}
	fpr := func(f *Filter) float64 {
		fp := 0
		for _, n := range neg {
			if f.Contains(n.Key) {
				fp++
			}
		}
		return float64(fp) / float64(len(neg))
	}
	fs, fq := fpr(slow), fpr(fast)
	t.Logf("HABF FPR %.5f, f-HABF FPR %.5f", fs, fq)
	// The paper reports f-HABF ≈ 1.5× HABF; we only require both to be
	// sane and fast to be within an order of magnitude.
	if fq > fs*20+0.02 {
		t.Errorf("f-HABF FPR %.5f wildly worse than HABF %.5f", fq, fs)
	}
}

// Property test: for arbitrary disjoint key sets, membership of every
// positive key holds after construction (the paper's zero-FNR theorem).
func TestQuickZeroFNR(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(11))}
	for _, fast := range []bool{false, true} {
		fast := fast
		f := func(rawPos, rawNeg [][]byte) bool {
			posSet := map[string]bool{}
			var pos [][]byte
			for _, k := range rawPos {
				if !posSet[string(k)] {
					posSet[string(k)] = true
					pos = append(pos, k)
				}
			}
			if len(pos) == 0 {
				return true
			}
			var neg []WeightedKey
			for i, k := range rawNeg {
				if !posSet[string(k)] {
					neg = append(neg, WeightedKey{Key: k, Cost: float64(i%7 + 1)})
				}
			}
			fl, err := New(pos, neg, Params{TotalBits: 1 << 14, Fast: fast})
			if err != nil {
				return false
			}
			for _, k := range pos {
				if !fl.Contains(k) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("fast=%v: %v", fast, err)
		}
	}
}

// Adversarial workload: all negative keys share a common prefix with the
// positives, so weak hashes cluster badly. Construction must still
// terminate and hold zero FNR.
func TestAdversarialSharedPrefix(t *testing.T) {
	pos := make([][]byte, 2000)
	neg := make([]WeightedKey, 2000)
	for i := range pos {
		pos[i] = []byte(fmt.Sprintf("shared-prefix-000000000000/%06d", i))
	}
	for i := range neg {
		neg[i] = WeightedKey{
			Key:  []byte(fmt.Sprintf("shared-prefix-000000000000/%06d", i+2000)),
			Cost: 1,
		}
	}
	f, err := New(pos, neg, Params{TotalBits: 2000 * 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range pos {
		if !f.Contains(k) {
			t.Fatal("false negative under adversarial prefixes")
		}
	}
}

func TestAblationFlagsRun(t *testing.T) {
	pos := genKeys(3000, "p")
	neg := genNegatives(3000, "n", func(i int) float64 { return float64(i%13 + 1) })
	for _, p := range []Params{
		{TotalBits: 3000 * 10, DisableGamma: true},
		{TotalBits: 3000 * 10, DisableOverlapRanking: true},
		{TotalBits: 3000 * 10, DisableCostOrdering: true},
	} {
		f, err := New(pos, neg, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range pos {
			if !f.Contains(k) {
				t.Fatalf("ablation %+v broke zero-FNR", p)
			}
		}
	}
}

func TestParamsSplit(t *testing.T) {
	p := Params{TotalBits: 1000}.withDefaults()
	he, bf := p.split()
	if he+bf != 1000 {
		t.Fatalf("split does not conserve budget: %d + %d", he, bf)
	}
	// Δ = 0.25 → HE share = 0.2.
	if he < 150 || he > 250 {
		t.Fatalf("HE share %d, want ≈200", he)
	}
}

func BenchmarkConstruct(b *testing.B) {
	pos := genKeys(20000, "p")
	neg := genNegatives(20000, "n", uniformCost)
	for _, fast := range []bool{false, true} {
		name := "HABF"
		if fast {
			name = "f-HABF"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(pos, neg, Params{TotalBits: 20000 * 10, Fast: fast}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkContains(b *testing.B) {
	pos := genKeys(20000, "p")
	neg := genNegatives(20000, "n", uniformCost)
	for _, fast := range []bool{false, true} {
		name := "HABF"
		if fast {
			name = "f-HABF"
		}
		f, err := New(pos, neg, Params{TotalBits: 20000 * 10, Fast: fast})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/positive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.Contains(pos[i%len(pos)])
			}
		})
		b.Run(name+"/negative", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.Contains(neg[i%len(neg)].Key)
			}
		})
	}
}
