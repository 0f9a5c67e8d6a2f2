package main

import (
	"errors"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // nearest rank: the ceil(q·n)-th smallest
		ok   bool
	}{
		{20, 0.5, 10, true},     // 10 samples beyond
		{19, 0.5, 0, false},     // the 10th of 19 has 9 beyond
		{21, 0.5, 11, true},     // ceil(10.5) = 11th
		{1000, 0.99, 990, true}, // 10 beyond
		{999, 0.99, 0, false},   // ceil(989.01) = 990th, 9 beyond
		{2000, 0.99, 1980, true},
		{0, 0.5, 0, false},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("percentile(1..%d, %g) = %v, %v; want %v, ok=%v", tc.n, tc.q, got, err, tc.want, tc.ok)
		}
		if err != nil && !errors.Is(err, errFewSamples) {
			t.Errorf("percentile(1..%d, %g): error %v is not errFewSamples", tc.n, tc.q, err)
		}
	}
}

func TestSummarize(t *testing.T) {
	// 1000 samples, shuffled: 990 of 1.0 and ten slow ones, 50..59.
	s := make([]float64, 0, 1000)
	for i := 0; i < 10; i++ {
		s = append(s, float64(59-i))
	}
	for i := 0; i < 990; i++ {
		s = append(s, 1)
	}
	l, err := summarize(s)
	if err != nil {
		t.Fatal(err)
	}
	if l.p50 != 1 || l.p99 != 1 || l.n != 1000 {
		t.Fatalf("summarize = %+v, want p50 1, p99 1 (the 990th), n 1000", l)
	}
	if s[0] != 59 {
		t.Fatal("summarize reordered its input")
	}
	if _, err := summarize(s[:999]); !errors.Is(err, errFewSamples) {
		t.Fatalf("summarize of 999 samples: %v, want errFewSamples for p99", err)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{5, 4, 1, 2, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSeries(t *testing.T) {
	// Three one-second slices of 1000 calls each; the middle one is a noisy
	// second, ten times slower and with half the throughput.
	s := newSeries(3)
	for i := 0; i < 1000; i++ {
		s.add(0, 2, 4)
		s.add(1, 20, 2)
		s.add(2, 4, 4)
	}
	if got := s.rate(time.Second); got != 10000.0/3 {
		t.Errorf("rate = %v, want 10000/3 (slices of 4000, 2000, 4000)", got)
	}
	l, err := s.latency()
	if err != nil {
		t.Fatal(err)
	}
	if l.p50 != 4 || l.p99 != 4 || l.n != 3000 {
		t.Errorf("latency = %+v, want p50 4, p99 4 (medians of 2, 20, 4), n 3000", l)
	}
	o := newSeries(3)
	o.add(2, 1, 1)
	s.merge(o)
	if len(s.lat[2]) != 1001 || s.keys[2] != 4001 {
		t.Errorf("merge: slice 2 has %d samples and %d keys, want 1001 and 4001", len(s.lat[2]), s.keys[2])
	}
	if _, err := newSeries(2).latency(); !errors.Is(err, errFewSamples) {
		t.Errorf("empty slices: %v, want errFewSamples", err)
	}
}

// TestChunked checks that Add latencies are cut into as many chunks as hold
// a p99 each, however long the window that produced them.
func TestChunked(t *testing.T) {
	for _, tc := range []struct{ n, chunks int }{{2999, 2}, {3000, 3}, {999, 1}} {
		s := chunked(seq(tc.n), 1000)
		if len(s.lat) != tc.chunks {
			t.Errorf("chunked(%d samples) = %d chunks, want %d", tc.n, len(s.lat), tc.chunks)
			continue
		}
		total := 0
		for _, c := range s.lat {
			total += len(c)
		}
		if total != tc.n {
			t.Errorf("chunked(%d samples) kept %d", tc.n, total)
		}
		if _, err := s.latency(); (err == nil) != (tc.n >= 1000) {
			t.Errorf("chunked(%d samples): latency error %v", tc.n, err)
		}
	}
}
