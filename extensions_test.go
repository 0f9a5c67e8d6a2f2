package habf_test

import (
	"fmt"
	"testing"

	habf "repro"
	"repro/internal/dataset"
)

func TestPublicAddAfterBuild(t *testing.T) {
	pos, neg, _, _ := workload(2000)
	f, err := habf.New(pos, neg, 3000*12)
	if err != nil {
		t.Fatal(err)
	}
	late := [][]byte{[]byte("late/a"), []byte("late/b")}
	for _, k := range late {
		f.Add(k)
		if !f.Contains(k) {
			t.Fatalf("added key %q not found", k)
		}
	}
	if f.AddedKeys() != 2 {
		t.Fatalf("AddedKeys = %d", f.AddedKeys())
	}
	if fnr, _ := habf.FNR(f, pos); fnr != 0 {
		t.Fatal("Add broke zero-FNR for original members")
	}
}

func TestPublicSerializationRoundtrip(t *testing.T) {
	pos, neg, negKeys, costs := workload(2000)
	f, err := habf.New(pos, neg, 2000*12, habf.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := habf.UnmarshalHABF(data)
	if err != nil {
		t.Fatal(err)
	}
	if fnr, _ := habf.FNR(g, pos); fnr != 0 {
		t.Fatal("decoded filter broke zero-FNR")
	}
	wf, _ := habf.WeightedFPR(f, negKeys, costs)
	wg, _ := habf.WeightedFPR(g, negKeys, costs)
	if wf != wg {
		t.Fatalf("weighted FPR changed through serialization: %v vs %v", wf, wg)
	}
	if _, err := habf.UnmarshalHABF([]byte("junk")); err == nil {
		t.Fatal("junk accepted")
	}
}

// TestPublicUnmarshalKeepsNoReference: UnmarshalHABF must not alias the
// caller's buffer. Overwriting it after the decode, and again after an Add
// on the decoded filter, must not change any answer, and the Add must not
// write to it.
func TestPublicUnmarshalKeepsNoReference(t *testing.T) {
	pos, neg, negKeys, _ := workload(2000)
	f, err := habf.New(pos, neg, 2000*12, habf.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := habf.UnmarshalHABF(data)
	if err != nil {
		t.Fatal(err)
	}
	probes := append(append([][]byte{}, pos...), negKeys...)
	for i := 0; i < 2000; i++ {
		probes = append(probes, []byte(fmt.Sprintf("novel-%05d", i)))
	}
	agree := func(stage string) {
		t.Helper()
		for _, k := range probes {
			if f.Contains(k) != g.Contains(k) {
				t.Fatalf("%s: decoded filter disagrees on %q", stage, k)
			}
		}
	}
	fill := func(b byte) {
		for i := range data {
			data[i] = b
		}
	}
	fill(0xFF)
	agree("after overwriting the input")

	fill(0xA5)
	added := []byte("added-after-decode")
	f.Add(added)
	g.Add(added)
	for i, b := range data {
		if b != 0xA5 {
			t.Fatalf("Add on the decoded filter wrote input byte %d", i)
		}
	}
	fill(0x00)
	agree("after Add and a second overwrite")
}

func TestPublicPHBF(t *testing.T) {
	pos, _, negKeys, _ := workload(3000)
	f, err := habf.NewPHBF(pos, 3000*10)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "PHBF" {
		t.Errorf("Name = %q", f.Name())
	}
	if fnr, _ := habf.FNR(f, pos); fnr != 0 {
		t.Fatal("PHBF broke zero-FNR")
	}
	if fpr, _ := habf.FPR(f, negKeys); fpr > 0.2 {
		t.Errorf("PHBF FPR %v not a useful filter", fpr)
	}
	if _, err := habf.NewPHBF(nil, 100); err == nil {
		t.Error("empty keys accepted")
	}
}

func TestPublicIncrementalLBF(t *testing.T) {
	p := dataset.Shalla(4000, 2000, 11)
	build, extra := p.Positives[:2000], p.Positives[2000:]
	for _, mode := range []habf.IncrementalMode{habf.ClassifierAdaptive, habf.IndexAdaptive} {
		f, err := habf.NewIncrementalLBF(mode, build, p.Negatives, uint64(len(build))*6)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range extra {
			f.Insert(k)
		}
		for _, k := range append(append([][]byte{}, build...), extra...) {
			if !f.Contains(k) {
				t.Fatalf("%s lost member %q", f.Name(), k)
			}
		}
		if f.SizeBits() == 0 {
			t.Errorf("%s SizeBits = 0", f.Name())
		}
	}
	if _, err := habf.NewIncrementalLBF(habf.IndexAdaptive, nil, nil, 100); err == nil {
		t.Error("empty positives accepted")
	}
}

func BenchmarkPublicAdd(b *testing.B) {
	pos, neg, _, _ := workload(10000)
	f, err := habf.New(pos, neg, 40000*12)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Add([]byte(fmt.Sprintf("bench-add/%d", i)))
	}
}

func TestPublicLBFGRU(t *testing.T) {
	if testing.Short() {
		t.Skip("GRU training is slow; skipped with -short")
	}
	p := dataset.Shalla(2000, 2000, 13)
	f, err := habf.NewLBFGRU(p.Positives, p.Negatives, uint64(2000*200))
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "LBF(GRU)" {
		t.Errorf("Name = %q", f.Name())
	}
	if fnr, _ := habf.FNR(f, p.Positives); fnr != 0 {
		t.Fatal("GRU-backed LBF broke zero-FNR")
	}
	if fpr, _ := habf.FPR(f, p.Negatives); fpr > 0.2 {
		t.Errorf("GRU-backed LBF FPR %v; not useful", fpr)
	}
}

func ExampleHABF_Add() {
	f, err := habf.New([][]byte{[]byte("first")}, nil, 4096)
	if err != nil {
		panic(err)
	}
	f.Add([]byte("second"))
	fmt.Println(f.Contains([]byte("second")), f.AddedKeys())
	// Output: true 1
}

func ExampleWeightedFPR() {
	members := [][]byte{[]byte("a"), []byte("b")}
	negKeys := [][]byte{[]byte("x"), []byte("y")}
	costs := []float64{10, 1}
	f, err := habf.New(members,
		[]habf.WeightedKey{{Key: negKeys[0], Cost: costs[0]}, {Key: negKeys[1], Cost: costs[1]}},
		4096, habf.WithSeed(1))
	if err != nil {
		panic(err)
	}
	w, err := habf.WeightedFPR(f, negKeys, costs)
	if err != nil {
		panic(err)
	}
	fmt.Println(w)
	// Output: 0
}
