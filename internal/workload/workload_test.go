package workload

import (
	"bytes"
	"testing"
)

var allDistributions = []Distribution{Uniform, Zipfian, Sequential, Latest}

func TestDeterminismPerSeed(t *testing.T) {
	for _, dist := range allDistributions {
		a, err := New(dist, 1000, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := New(dist, 1000, 42)
		c, _ := New(dist, 1000, 43)
		same, diff := true, true
		for i := 0; i < 4096; i++ {
			x, y, z := a.Next(), b.Next(), c.Next()
			if x != y {
				same = false
			}
			if x != z {
				diff = false
			}
		}
		if !same {
			t.Errorf("%s: same seed produced different streams", dist)
		}
		if dist != Sequential && diff {
			t.Errorf("%s: different seeds produced identical streams", dist)
		}
	}
}

func TestBounds(t *testing.T) {
	for _, dist := range allDistributions {
		for _, n := range []int{1, 7, 1000} {
			g, err := New(dist, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2000; i++ {
				if idx := g.Next(); idx < 0 || idx >= n {
					t.Fatalf("%s n=%d: index %d out of range", dist, n, idx)
				}
			}
		}
	}
}

func TestSequentialCycles(t *testing.T) {
	g, _ := New(Sequential, 5, 1)
	want := []int{0, 1, 2, 3, 4, 0, 1}
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Fatalf("draw %d: got %d want %d", i, got, w)
		}
	}
}

func TestZipfianIsSkewedTowardLowIndices(t *testing.T) {
	g, _ := New(Zipfian, 10000, 7)
	const draws = 50000
	top := 0
	for i := 0; i < draws; i++ {
		if g.Next() < 100 { // hottest 1% of the key space
			top++
		}
	}
	// Under uniform the expectation is 1%; zipf(1.1) concentrates far
	// more. Use a loose floor so the test pins skew, not exact mass.
	if frac := float64(top) / draws; frac < 0.25 {
		t.Fatalf("hottest 1%% of keys drew only %.1f%% of accesses, want skew", 100*frac)
	}
}

func TestLatestIsSkewedTowardHighIndices(t *testing.T) {
	g, _ := New(Latest, 10000, 7)
	const draws = 50000
	recent := 0
	for i := 0; i < draws; i++ {
		if g.Next() >= 9000 { // newest 10% of the key space
			recent++
		}
	}
	if frac := float64(recent) / draws; frac < 0.5 {
		t.Fatalf("newest 10%% of keys drew only %.1f%% of accesses, want recency skew", 100*frac)
	}
}

func TestKeysDeterministicAndUnique(t *testing.T) {
	a := Keys(500, 1)
	b := Keys(500, 1)
	seen := map[string]bool{}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("Keys not deterministic at %d: %q vs %q", i, a[i], b[i])
		}
		if seen[string(a[i])] {
			t.Fatalf("duplicate key %q", a[i])
		}
		seen[string(a[i])] = true
	}
}

func TestMixProbes(t *testing.T) {
	pos := [][]byte{[]byte("p0"), []byte("p1"), []byte("p2")}
	neg := [][]byte{[]byte("n0"), []byte("n1"), []byte("n2"), []byte("n3"), []byte("n4")}
	a, err := MixProbes(Zipfian, 7, 100, pos, neg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := MixProbes(Zipfian, 7, 100, pos, neg)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("MixProbes not deterministic at %d", i)
		}
		want := byte('n')
		if i%2 == 1 {
			want = 'p'
		}
		if a[i][0] != want {
			t.Fatalf("position %d: got %q, want prefix %q", i, a[i], want)
		}
	}
	if _, err := MixProbes(Zipfian, 7, 10, nil, neg); err == nil {
		t.Fatal("MixProbes accepted empty positives")
	}
	if _, err := MixProbes("hotspot", 7, 10, pos, neg); err == nil {
		t.Fatal("MixProbes accepted unknown distribution")
	}
}

func TestParseRejectsUnknown(t *testing.T) {
	if _, err := Parse("hotspot"); err == nil {
		t.Fatal("Parse accepted unknown distribution")
	}
	if _, err := New("hotspot", 10, 1); err == nil {
		t.Fatal("New accepted unknown distribution")
	}
	if _, err := New(Uniform, 0, 1); err == nil {
		t.Fatal("New accepted zero keys")
	}
}
