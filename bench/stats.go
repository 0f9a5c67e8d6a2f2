package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile;
// fewer would make it an anecdote rather than a measurement.
const minBeyond = 10

var errFewSamples = errors.New("too few samples")

// percentile returns the nearest-rank q-quantile of sorted samples. It
// refuses when fewer than minBeyond samples lie beyond it: a p99 needs at
// least 1000 samples, a median 20.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if n == 0 || n-1-i < minBeyond {
		return 0, fmt.Errorf("%w: p%g of %d samples has %d beyond it, want %d", errFewSamples, 100*q, n, max(n-1-i, 0), minBeyond)
	}
	return sorted[i], nil
}

// latency is the median and p99 of a set of per-call samples, with the
// sample count they rest on.
type latency struct {
	p50, p99 float64
	n        int
}

func summarize(samples []float64) (latency, error) {
	s := slices.Clone(samples)
	slices.Sort(s)
	p50, err := percentile(s, 0.50)
	if err != nil {
		return latency{}, err
	}
	p99, err := percentile(s, 0.99)
	if err != nil {
		return latency{}, err
	}
	return latency{p50: p50, p99: p99, n: len(s)}, nil
}

// median is the middle of repeated measurements, such as the set-ups of a
// run, or the mean of the two middle ones for an even count.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// series holds per-call samples by slice: one-second slices of a measured
// window, or equal chunks of a closed-loop phase. Reporting the median of
// the slices' percentiles keeps one noisy second on a shared host from
// moving a run's tail latency the way pooling every sample would.
type series struct {
	lat  [][]float64 // µs per call, by slice
	keys []int64     // keys answered, by slice
}

func newSeries(slices int) series {
	return series{lat: make([][]float64, slices), keys: make([]int64, slices)}
}

// chunked cuts samples of a closed-loop phase, in order, into as many
// slices of at least size samples as they fill.
func chunked(samples []float64, size int) series {
	n := max(1, len(samples)/size)
	s := newSeries(n)
	for i := 0; i < n; i++ {
		s.lat[i] = samples[i*len(samples)/n : (i+1)*len(samples)/n]
		s.keys[i] = int64(len(s.lat[i]))
	}
	return s
}

func (s *series) add(i int, us float64, keys int) {
	s.lat[i] = append(s.lat[i], us)
	s.keys[i] += int64(keys)
}

func (s *series) merge(o series) {
	for i := range o.lat {
		s.lat[i] = append(s.lat[i], o.lat[i]...)
		s.keys[i] += o.keys[i]
	}
}

// rate is keys answered per second over the whole window, each slice
// lasting width. A slow slice counts as it does for a caller: on rw-churn
// the second in which the shards rebuild is part of the read rate.
func (s series) rate(width time.Duration) float64 {
	var keys int64
	for _, k := range s.keys {
		keys += k
	}
	return float64(keys) / (width.Seconds() * float64(len(s.keys)))
}

// latency is the median over slices of each slice's p50 and p99; n counts
// the samples of every slice. Every slice must hold enough samples for its
// own p99.
func (s series) latency() (latency, error) {
	var p50, p99 []float64
	n := 0
	for i, lat := range s.lat {
		l, err := summarize(lat)
		if err != nil {
			return latency{}, fmt.Errorf("slice %d: %w", i, err)
		}
		p50, p99 = append(p50, l.p50), append(p99, l.p99)
		n += l.n
	}
	return latency{p50: median(p50), p99: median(p99), n: n}, nil
}
