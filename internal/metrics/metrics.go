// Package metrics implements the four measurements of §V-B: weighted FPR
// (Eq. 20), construction time, query latency and construction memory
// consumption, in a form every filter in the repository can plug into.
package metrics

import (
	"fmt"
	"runtime"
	"time"
)

// Filter is the query-side capability every filter under test exposes.
type Filter interface {
	Contains(key []byte) bool
	Name() string
	SizeBits() uint64
}

// WeightedFPR measures Eq. 20 over the known negative set: the cost-mass
// of false positives divided by the total cost mass. With uniform costs it
// equals the plain FPR.
//
// Sampling contract: the result is computed over exactly the negatives
// given — no extrapolation, no resampling, no reweighting beyond the
// supplied costs. Callers that pass a sample of their negative traffic
// (habfbench's accuracy line passes the known adversarial negatives,
// the distribution cost-aware filters optimize against) get an estimate
// conditional on that sample's distribution, which can differ from the
// uniform-universe FPR; callers that pass every non-member key get the
// exact rate. TestSamplingContract pins both readings against an
// exhaustive small-universe computation. costs[i] must belong to
// negatives[i]; a length mismatch is an error, never a truncation.
func WeightedFPR(f Filter, negatives [][]byte, costs []float64) (float64, error) {
	if len(negatives) == 0 {
		return 0, fmt.Errorf("metrics: empty negative set")
	}
	if len(costs) != len(negatives) {
		return 0, fmt.Errorf("metrics: %d costs for %d negatives", len(costs), len(negatives))
	}
	var fpCost, total float64
	for i, key := range negatives {
		total += costs[i]
		if f.Contains(key) {
			fpCost += costs[i]
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("metrics: zero total cost")
	}
	return fpCost / total, nil
}

// FPR measures the plain false-positive rate over known negatives. The
// WeightedFPR sampling contract applies: the rate is exact for the keys
// given and an estimate of nothing beyond them.
func FPR(f Filter, negatives [][]byte) (float64, error) {
	if len(negatives) == 0 {
		return 0, fmt.Errorf("metrics: empty negative set")
	}
	fp := 0
	for _, key := range negatives {
		if f.Contains(key) {
			fp++
		}
	}
	return float64(fp) / float64(len(negatives)), nil
}

// FNR measures the false-negative rate over known positives; every filter
// in this repository must report 0.
func FNR(f Filter, positives [][]byte) (float64, error) {
	if len(positives) == 0 {
		return 0, fmt.Errorf("metrics: empty positive set")
	}
	fn := 0
	for _, key := range positives {
		if !f.Contains(key) {
			fn++
		}
	}
	return float64(fn) / float64(len(positives)), nil
}

// TimePerKey runs fn once over n keys and returns the mean wall time per
// key — the construction-time and query-latency metric of Fig. 12.
func TimePerKey(n int, fn func()) time.Duration {
	if n <= 0 {
		return 0
	}
	start := time.Now()
	fn()
	return time.Since(start) / time.Duration(n)
}

// QueryLatency measures mean Contains latency over the given probe keys.
func QueryLatency(f Filter, probes [][]byte) time.Duration {
	if len(probes) == 0 {
		return 0
	}
	var sink bool
	start := time.Now()
	for _, key := range probes {
		sink = f.Contains(key)
	}
	_ = sink
	return time.Since(start) / time.Duration(len(probes))
}

// ConstructionFootprint runs build and returns its result together with
// the peak-ish heap growth it caused, in bytes — the Fig. 15 metric. The
// measurement forces a GC before and after, so it reports live allocations
// retained by the build plus transient structures still reachable at
// return; it is an approximation adequate for the paper's ratio-level
// comparisons.
//
// It collects twice before measuring: a sync.Pool keeps what was put in
// it through one collection, so after a single GC a build could reuse the
// working memory a previous build pooled (HABF's builder scratch) and
// report too little.
func ConstructionFootprint[T any](build func() T) (T, uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	out := build()
	runtime.ReadMemStats(&after)
	var grew uint64
	if after.HeapAlloc > before.HeapAlloc {
		grew = after.HeapAlloc - before.HeapAlloc
	}
	// TotalAlloc delta captures transient construction garbage, which is
	// what dominates the paper's construction-memory figure.
	churn := after.TotalAlloc - before.TotalAlloc
	if churn > grew {
		grew = churn
	}
	return out, grew
}
