package costsketch

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
)

func TestSpaceSavingValidation(t *testing.T) {
	if _, err := NewSpaceSaving(0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestSpaceSavingFindsHeavyHitters(t *testing.T) {
	ss, err := NewSpaceSaving(64)
	if err != nil {
		t.Fatal(err)
	}
	// Zipf stream: the few hottest keys must be reported.
	costs := dataset.ZipfCosts(1000, 1.2, 3)
	type kv struct {
		idx  int
		freq float64
	}
	var order []kv
	for i, c := range costs {
		order = append(order, kv{i, c})
	}
	sort.Slice(order, func(a, b int) bool { return order[a].freq > order[b].freq })

	rng := rand.New(rand.NewSource(4))
	var total float64
	cum := make([]float64, len(costs))
	for i, c := range costs {
		total += c
		cum[i] = total
	}
	for i := 0; i < 100000; i++ {
		idx := sort.SearchFloat64s(cum, rng.Float64()*total)
		if idx >= len(costs) {
			idx = len(costs) - 1
		}
		ss.Add([]byte(fmt.Sprintf("obj-%d", idx)), 1)
	}

	top := ss.Top(10)
	if len(top) != 10 {
		t.Fatalf("Top returned %d items", len(top))
	}
	reported := map[string]bool{}
	for _, it := range top {
		reported[string(it.Key)] = true
	}
	// The 3 hottest true keys must all be present.
	for _, h := range order[:3] {
		key := fmt.Sprintf("obj-%d", h.idx)
		if !reported[key] {
			t.Errorf("hot key %q (rank) missing from top-10", key)
		}
	}
	// Estimates bound the truth: Count-Err ≤ true ≤ Count.
	for _, it := range top {
		if it.Err > it.Count {
			t.Errorf("error bound %d exceeds count %d", it.Err, it.Count)
		}
	}
}

func TestSpaceSavingCapacity(t *testing.T) {
	ss, _ := NewSpaceSaving(8)
	for i := 0; i < 1000; i++ {
		ss.Add([]byte(fmt.Sprintf("k%d", i)), 1)
	}
	if ss.Len() != 8 {
		t.Fatalf("Len = %d, want 8", ss.Len())
	}
	if ss.Total() != 1000 {
		t.Fatalf("Total = %d", ss.Total())
	}
	if got := len(ss.Top(100)); got != 8 {
		t.Fatalf("Top(100) = %d items", got)
	}
}

func TestSpaceSavingExactWhenUnderCapacity(t *testing.T) {
	ss, _ := NewSpaceSaving(100)
	for i := 0; i < 50; i++ {
		ss.Add([]byte(fmt.Sprintf("k%d", i%10)), 1)
	}
	for _, it := range ss.Top(10) {
		if it.Count != 5 || it.Err != 0 {
			t.Fatalf("under-capacity counts must be exact: %+v", it)
		}
	}
}

func BenchmarkSpaceSavingAdd(b *testing.B) {
	ss, _ := NewSpaceSaving(1024)
	keys := make([][]byte, 10000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("obj-%d", i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ss.Add(keys[i%len(keys)], 1)
	}
}
