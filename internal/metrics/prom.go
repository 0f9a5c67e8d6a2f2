package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file adds the serving-side half of the package: a tiny,
// dependency-free metric registry that renders the Prometheus text
// exposition format. The paper-evaluation helpers above measure a filter
// once, offline; a filter *service* needs counters and latency
// histograms that are cheap enough to touch on every request and
// scrapeable by a stock Prometheus. Only the primitives habfserved needs
// are implemented: monotonic counters, gauges sampled at scrape time,
// and fixed-bucket histograms.

// Counter is a monotonically increasing metric. The zero value is ready
// to use once registered.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// GaugeFunc is a metric sampled at scrape time, for values the serving
// layer already tracks elsewhere (shard stats, filter size).
type GaugeFunc func() float64

// CounterFunc is a counter-typed metric sampled at scrape time, for
// monotone counts owned by another component (a replication follower's
// resync total). It renders as TYPE counter — rate() works on it —
// without requiring that component to hold a *Counter of this registry.
type CounterFunc func() uint64

// Histogram counts observations into fixed, cumulative-at-scrape-time
// buckets. Observe is two atomic adds and a linear scan of ~16 bounds,
// cheap enough for per-request latency tracking.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implied
	counts []atomic.Uint64
	sum    atomic.Uint64 // accumulated in micro-units to stay integral
	count  atomic.Uint64
}

// histSumScale keeps Histogram.sum integral: values are accumulated in
// millionths, so latencies in seconds keep microsecond resolution.
const histSumScale = 1e6

// NewHistogram returns a histogram over the given ascending upper
// bounds. An implicit +Inf bucket catches the tail.
func NewHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	sort.Float64s(h.bounds)
	return h
}

// DurationBuckets is a latency bucket ladder from 10µs to ~10s, suitable
// for both in-process query latencies and end-to-end HTTP request times.
func DurationBuckets() []float64 {
	return []float64{
		10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
		250e-3, 500e-3, 1, 2.5, 10,
	}
}

// SizeBuckets is a power-of-two ladder for batch-size distributions.
func SizeBuckets(max int) []float64 {
	var b []float64
	for s := 1; s <= max; s <<= 1 {
		b = append(b, float64(s))
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	if v > 0 && !math.IsInf(v, 1) {
		h.sum.Add(uint64(v * histSumScale))
	}
	h.count.Add(1)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// metricKind tags how a registered metric renders.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	name   string // full name including any label set, e.g. `x_total{op="add"}`
	family string // name without labels, for TYPE/HELP grouping
	help   string
	kind   metricKind
	c      *Counter
	cf     CounterFunc
	g      GaugeFunc
	h      *Histogram
}

// Registry holds registered metrics and renders them in the Prometheus
// text exposition format. Registration is expected at setup time;
// WritePrometheus may be called concurrently with metric updates.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// splitLabels separates `name{labels}` into family and the braced part.
func splitLabels(name string) (family string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i]
		}
	}
	return name
}

// Counter registers and returns a counter. name may carry a literal
// label set (`requests_total{endpoint="contains"}`); metrics sharing a
// family render under one TYPE/HELP header in registration order.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, &metric{
		name: name, family: splitLabels(name), help: help, kind: kindCounter, c: c,
	})
	return c
}

// CounterFunc registers a scrape-time sampled counter. The function
// must be monotone non-decreasing; the registry renders whatever it
// returns.
func (r *Registry) CounterFunc(name, help string, fn CounterFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, &metric{
		name: name, family: splitLabels(name), help: help, kind: kindCounter, cf: fn,
	})
}

// Gauge registers a scrape-time sampled gauge.
func (r *Registry) Gauge(name, help string, fn GaugeFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, &metric{
		name: name, family: splitLabels(name), help: help, kind: kindGauge, g: fn,
	})
}

// Histogram registers and returns a histogram over bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, &metric{
		name: name, family: splitLabels(name), help: help, kind: kindHistogram, h: h,
	})
	return h
}

// WritePrometheus renders every registered metric in the text exposition
// format, grouping TYPE/HELP headers by metric family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()

	seen := map[string]bool{}
	for _, m := range ms {
		if !seen[m.family] {
			seen[m.family] = true
			typ := "counter"
			switch m.kind {
			case kindGauge:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.family, m.help, m.family, typ); err != nil {
				return err
			}
		}
		switch m.kind {
		case kindCounter:
			v := uint64(0)
			if m.c != nil {
				v = m.c.Value()
			} else if m.cf != nil {
				v = m.cf()
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", m.name, v); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "%s %v\n", m.name, m.g()); err != nil {
				return err
			}
		case kindHistogram:
			if err := writeHistogram(w, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders the cumulative bucket series plus _sum/_count.
func writeHistogram(w io.Writer, m *metric) error {
	h := m.h
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.family, formatBound(bound), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m.family, cum); err != nil {
		return err
	}
	sum := float64(h.sum.Load()) / histSumScale
	if _, err := fmt.Fprintf(w, "%s_sum %v\n%s_count %d\n", m.family, sum, m.family, h.count.Load()); err != nil {
		return err
	}
	return nil
}

// formatBound renders a bucket bound the way Prometheus expects
// (shortest representation, no exponent for small values).
func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}
