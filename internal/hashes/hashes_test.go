package hashes

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCorpusShape(t *testing.T) {
	c := Corpus()
	if len(c) != 22 {
		t.Fatalf("corpus has %d functions, Table II lists 22", len(c))
	}
	seen := map[string]bool{}
	for _, n := range c {
		if n.Name == "" || n.Fn == nil {
			t.Fatalf("corpus entry %+v incomplete", n)
		}
		if seen[n.Name] {
			t.Fatalf("duplicate corpus name %q", n.Name)
		}
		seen[n.Name] = true
	}
	if CorpusSize() != len(c) {
		t.Fatalf("CorpusSize = %d, want %d", CorpusSize(), len(c))
	}
	if len(CorpusFuncs()) != len(c) {
		t.Fatal("CorpusFuncs length mismatch")
	}
}

func TestCorpusCopyIsIndependent(t *testing.T) {
	a := Corpus()
	a[0].Name = "mutated"
	if Corpus()[0].Name == "mutated" {
		t.Fatal("Corpus returns shared backing array")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"XX64", "DJB", "ELF", "CRC32"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) not found", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted unknown name")
	}
}

func TestDeterminism(t *testing.T) {
	keys := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("abc"),
		[]byte("hello world, this is a longer key to cross chunk boundaries!!"),
	}
	for _, n := range Corpus() {
		for _, k := range keys {
			a, b := n.Fn(k), n.Fn(k)
			if a != b {
				t.Errorf("%s not deterministic on %q", n.Name, k)
			}
		}
	}
}

// Every length from 0 to 64 must be handled without panic and with results
// that change when the data changes (catches chunk-boundary bugs in the
// block-based functions).
func TestAllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range Corpus() {
		prev := map[uint64]int{}
		for l := 0; l <= 64; l++ {
			buf := make([]byte, l)
			rng.Read(buf)
			h := n.Fn(buf)
			prev[h]++
		}
		// 65 random inputs: a strong hash yields 65 distinct values; even the
		// weak classics must not collapse to a handful.
		if len(prev) < 50 {
			t.Errorf("%s produced only %d distinct values over 65 random inputs", n.Name, len(prev))
		}
	}
}

func TestLastByteMatters(t *testing.T) {
	// Flipping the final byte must change the hash for every corpus
	// function (tail-handling correctness).
	for _, l := range []int{1, 3, 4, 7, 8, 9, 12, 15, 16, 17, 31, 32, 33} {
		a := make([]byte, l)
		b := make([]byte, l)
		for i := range a {
			a[i] = byte(i + 1)
			b[i] = byte(i + 1)
		}
		b[l-1] ^= 0x80
		for _, n := range Corpus() {
			if n.Fn(a) == n.Fn(b) {
				t.Errorf("%s: flipping last byte of %d-byte key did not change hash", n.Name, l)
			}
		}
	}
}

func TestFunctionsMutuallyDifferent(t *testing.T) {
	// On a batch of keys, no two corpus functions may agree everywhere.
	keys := make([][]byte, 32)
	rng := rand.New(rand.NewSource(9))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d-%d", i, rng.Int63()))
	}
	c := Corpus()
	for i := 0; i < len(c); i++ {
		for j := i + 1; j < len(c); j++ {
			same := true
			for _, k := range keys {
				if c[i].Fn(k) != c[j].Fn(k) {
					same = false
					break
				}
			}
			if same {
				t.Errorf("%s and %s agree on all %d test keys", c[i].Name, c[j].Name, len(keys))
			}
		}
	}
}

// Uniformity sanity check for the strong functions: bucket 20k random keys
// into 64 buckets and verify the chi-squared statistic is not catastrophic.
func TestStrongUniformity(t *testing.T) {
	strong := []string{"XX64", "City64", "Murmur64", "BOB", "OAAT", "SuperFast", "Hsieh", "TWMX", "FNV"}
	const (
		nKeys    = 20000
		nBuckets = 64
	)
	rng := rand.New(rand.NewSource(123))
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("uniformity/%d/%d", i, rng.Int63()))
	}
	for _, name := range strong {
		fn, _ := ByName(name)
		counts := make([]float64, nBuckets)
		for _, k := range keys {
			counts[fn(k)%nBuckets]++
		}
		expected := float64(nKeys) / nBuckets
		var chi2 float64
		for _, c := range counts {
			d := c - expected
			chi2 += d * d / expected
		}
		// 63 degrees of freedom; mean 63, stddev ~11.2. 150 is far beyond
		// any plausible statistical fluctuation and only catches brokenness.
		if chi2 > 150 {
			t.Errorf("%s: chi-squared %.1f over %d buckets (broken distribution)", name, chi2, nBuckets)
		}
	}
}

func TestXXH64SeedChangesResult(t *testing.T) {
	key := []byte("seeded key")
	if XXH64Seed(key, 1) == XXH64Seed(key, 2) {
		t.Fatal("different seeds produced identical xx64 values")
	}
	if XXH64(key) != XXH64Seed(key, 0) {
		t.Fatal("XXH64 is not seed-0 XXH64Seed")
	}
}

func TestSplit128LanesIndependent(t *testing.T) {
	// The two lanes must differ and must not be trivially related across keys.
	equal := 0
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("lane-%d", i))
		hi, lo := Split128(key, 7)
		if hi == lo {
			equal++
		}
	}
	if equal > 0 {
		t.Fatalf("%d/1000 keys had identical 128-bit lanes", equal)
	}
}

func TestDouble(t *testing.T) {
	h1, h2 := uint64(100), uint64(6) // even h2 must still cycle (forced odd)
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		seen[Double(h1, h2, i)%8] = true
	}
	if len(seen) != 8 {
		t.Fatalf("Double with odd-forced step visited %d/8 residues", len(seen))
	}
	if Double(h1, h2, 0) != h1 {
		t.Fatal("Double(·,·,0) must equal h1")
	}
}

func TestMix64(t *testing.T) {
	if Mix64(0) == 0 {
		// splitmix64 finalizer maps 0 to 0 — document the property.
		t.Log("Mix64(0) = 0 (fixed point), callers must not rely on non-zero")
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		seen[Mix64(i)] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("Mix64 collided on sequential inputs: %d/1000 distinct", len(seen))
	}
}

// Property: every corpus function is a pure function of its input bytes.
func TestQuickPurity(t *testing.T) {
	for _, n := range Corpus() {
		fn := n.Fn
		f := func(data []byte) bool {
			cp := append([]byte(nil), data...)
			h1 := fn(data)
			h2 := fn(cp)
			return h1 == h2
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

// Property: corpus functions never mutate their input.
func TestQuickNoMutation(t *testing.T) {
	f := func(data []byte) bool {
		cp := append([]byte(nil), data...)
		for _, n := range Corpus() {
			n.Fn(data)
		}
		for i := range data {
			if data[i] != cp[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAvalancheStrong(t *testing.T) {
	// Single-bit input flips should flip roughly half the output bits for
	// the strong functions. We only require a loose band (20–44 of 64).
	strong := []string{"XX64", "Murmur64", "City64", "TWMX"}
	rng := rand.New(rand.NewSource(77))
	for _, name := range strong {
		fn, _ := ByName(name)
		var total, trials float64
		for i := 0; i < 200; i++ {
			buf := make([]byte, 16)
			rng.Read(buf)
			h0 := fn(buf)
			bit := rng.Intn(128)
			buf[bit/8] ^= 1 << (bit % 8)
			h1 := fn(buf)
			total += float64(popcount64(h0 ^ h1))
			trials++
		}
		avg := total / trials
		if math.Abs(avg-32) > 12 {
			t.Errorf("%s: avalanche average %.1f bits, want ≈32", name, avg)
		}
	}
}

func popcount64(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func BenchmarkCorpusAll(b *testing.B) {
	key := []byte("http://example.com/some/realistic/path?query=1234567890")
	for _, n := range Corpus() {
		b.Run(n.Name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(key)))
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += n.Fn(key)
			}
			_ = sink
		})
	}
}

func BenchmarkSplit128(b *testing.B) {
	key := []byte("http://example.com/some/realistic/path?query=1234567890")
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		hi, lo := Split128(key, 0)
		sink += hi ^ lo
	}
	_ = sink
}

func TestEnhancedDouble(t *testing.T) {
	// i=0 must reduce to h1 (triangular term vanishes).
	if EnhancedDouble(42, 7, 0) != 42 {
		t.Fatal("EnhancedDouble(·,·,0) != h1")
	}
	// The triangular term must separate it from plain double hashing for
	// i >= 2.
	if EnhancedDouble(42, 7, 2) == Double(42, 7, 2) {
		t.Fatal("enhanced variant identical to plain at i=2")
	}
	// Position diversity: for a table that defeats plain double hashing
	// (indices forming an arithmetic progression mod a small m), the
	// enhanced variant must produce more distinct residues on average.
	const m = 97
	plainHits, enhHits := map[uint64]bool{}, map[uint64]bool{}
	for i := 0; i < 16; i++ {
		plainHits[Double(5, 97*3, i)%m] = true // step ≡ small mod m
		enhHits[EnhancedDouble(5, 97*3, i)%m] = true
	}
	if len(enhHits) <= len(plainHits) {
		t.Errorf("enhanced double hashing no more diverse: %d vs %d residues",
			len(enhHits), len(plainHits))
	}
}
