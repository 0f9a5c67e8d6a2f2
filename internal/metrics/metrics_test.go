package metrics

import (
	"sync"
	"testing"
	"time"
)

// setFilter is a deterministic test double: membership by exact set.
type setFilter struct {
	keys map[string]bool
	fp   map[string]bool // keys it wrongly accepts
}

func (s *setFilter) Contains(key []byte) bool {
	return s.keys[string(key)] || s.fp[string(key)]
}
func (s *setFilter) Name() string     { return "set" }
func (s *setFilter) SizeBits() uint64 { return 0 }

func TestWeightedFPR(t *testing.T) {
	f := &setFilter{
		keys: map[string]bool{"a": true},
		fp:   map[string]bool{"x": true},
	}
	neg := [][]byte{[]byte("x"), []byte("y"), []byte("z")}
	costs := []float64{10, 1, 1}
	got, err := WeightedFPR(f, neg, costs)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10.0/12.0 {
		t.Errorf("WeightedFPR = %v, want %v", got, 10.0/12.0)
	}
	// Uniform costs equal plain FPR.
	uniform := []float64{1, 1, 1}
	w, _ := WeightedFPR(f, neg, uniform)
	p, _ := FPR(f, neg)
	if w != p {
		t.Errorf("uniform weighted %v != plain %v", w, p)
	}
}

func TestWeightedFPRErrors(t *testing.T) {
	f := &setFilter{}
	if _, err := WeightedFPR(f, nil, nil); err == nil {
		t.Error("empty negatives accepted")
	}
	if _, err := WeightedFPR(f, [][]byte{[]byte("a")}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := WeightedFPR(f, [][]byte{[]byte("a")}, []float64{0}); err == nil {
		t.Error("zero cost mass accepted")
	}
}

func TestFNR(t *testing.T) {
	f := &setFilter{keys: map[string]bool{"a": true}}
	got, err := FNR(f, [][]byte{[]byte("a"), []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 {
		t.Errorf("FNR = %v, want 0.5", got)
	}
	if _, err := FNR(f, nil); err == nil {
		t.Error("empty positives accepted")
	}
}

func TestFPRBasic(t *testing.T) {
	f := &setFilter{fp: map[string]bool{"x": true}}
	got, err := FPR(f, [][]byte{[]byte("x"), []byte("y")})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 {
		t.Errorf("FPR = %v, want 0.5", got)
	}
	if _, err := FPR(f, nil); err == nil {
		t.Error("empty negatives accepted")
	}
}

func TestTimePerKey(t *testing.T) {
	d := TimePerKey(100, func() { time.Sleep(time.Millisecond) })
	if d < 5*time.Microsecond || d > 5*time.Millisecond {
		t.Errorf("TimePerKey = %v, want ≈10µs", d)
	}
	if TimePerKey(0, func() {}) != 0 {
		t.Error("n=0 should give 0")
	}
}

func TestQueryLatency(t *testing.T) {
	f := &setFilter{keys: map[string]bool{"a": true}}
	probes := make([][]byte, 1000)
	for i := range probes {
		probes[i] = []byte("a")
	}
	if d := QueryLatency(f, probes); d < 0 {
		t.Errorf("latency %v", d)
	}
	if QueryLatency(f, nil) != 0 {
		t.Error("no probes should give 0")
	}
}

func TestConstructionFootprint(t *testing.T) {
	out, bytes := ConstructionFootprint(func() []byte {
		return make([]byte, 1<<20)
	})
	if len(out) != 1<<20 {
		t.Fatal("build result lost")
	}
	if bytes < 1<<20 {
		t.Errorf("footprint %d below the 1 MiB actually allocated", bytes)
	}
}

// TestConstructionFootprintCountsPooled checks that memory a build takes
// from a sync.Pool filled before the measurement counts: the pool must be
// emptied first, or the build would reuse it for free.
func TestConstructionFootprintCountsPooled(t *testing.T) {
	pool := sync.Pool{New: func() any { return make([]byte, 1<<20) }}
	pool.Put(make([]byte, 1<<20))
	_, bytes := ConstructionFootprint(func() []byte {
		buf := pool.Get().([]byte)
		defer pool.Put(buf)
		return buf
	})
	if bytes < 1<<20 {
		t.Errorf("footprint %d below the 1 MiB the build took from a pool", bytes)
	}
}
