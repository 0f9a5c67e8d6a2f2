// Package costsketch provides the cost-monitoring substrate the paper
// assumes around HABF: §I notes that "some cost information can be or is
// already being monitored", citing distributed top-k monitoring (Babcock
// & Olston) and frequent-item tracking (Cormode & Muthukrishnan). This
// package implements the tool those lines refer to: SpaceSaving, the
// Metwally et al. top-k heavy-hitter summary, which yields the
// bounded-size "costly negative keys" list HABF consumes. It turns a raw
// miss/query stream into the []WeightedKey input of habf.New without
// storing the stream.
package costsketch

import (
	"container/heap"
	"fmt"
	"sort"
)

// SpaceSaving is the Metwally–Agrawal–El Abbadi heavy-hitter summary: at
// most capacity counters, every key with true frequency above N/capacity
// guaranteed present, estimates overshooting by at most the minimum
// counter.
type SpaceSaving struct {
	capacity int
	entries  map[string]*ssEntry
	h        ssHeap
	total    uint64
}

type ssEntry struct {
	key   string
	count uint64
	err   uint64 // overestimation bound inherited at replacement
	index int    // heap position
}

// NewSpaceSaving returns a summary tracking at most capacity keys.
func NewSpaceSaving(capacity int) (*SpaceSaving, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("costsketch: capacity %d", capacity)
	}
	return &SpaceSaving{
		capacity: capacity,
		entries:  make(map[string]*ssEntry, capacity),
	}, nil
}

// Add records count occurrences of key.
func (s *SpaceSaving) Add(key []byte, count uint64) {
	s.total += count
	if e, ok := s.entries[string(key)]; ok {
		e.count += count
		heap.Fix(&s.h, e.index)
		return
	}
	if len(s.entries) < s.capacity {
		e := &ssEntry{key: string(key), count: count}
		s.entries[e.key] = e
		heap.Push(&s.h, e)
		return
	}
	// Replace the minimum counter: the classic space-saving step.
	min := s.h[0]
	delete(s.entries, min.key)
	e := &ssEntry{key: string(key), count: min.count + count, err: min.count}
	s.entries[e.key] = e
	s.h[0] = e
	e.index = 0
	heap.Fix(&s.h, 0)
}

// Item is one reported heavy hitter.
type Item struct {
	Key   []byte
	Count uint64 // estimate, Count-Err ≤ true ≤ Count
	Err   uint64
}

// Top returns up to n heavy hitters, highest estimate first.
func (s *SpaceSaving) Top(n int) []Item {
	items := make([]Item, 0, len(s.entries))
	for _, e := range s.entries {
		items = append(items, Item{Key: []byte(e.key), Count: e.count, Err: e.err})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].Count != items[j].Count {
			return items[i].Count > items[j].Count
		}
		return string(items[i].Key) < string(items[j].Key)
	})
	if n < len(items) {
		items = items[:n]
	}
	return items
}

// Total returns the stream length seen so far.
func (s *SpaceSaving) Total() uint64 { return s.total }

// Len returns the number of tracked keys.
func (s *SpaceSaving) Len() int { return len(s.entries) }

// ssHeap is a min-heap over counts.
type ssHeap []*ssEntry

func (h ssHeap) Len() int            { return len(h) }
func (h ssHeap) Less(i, j int) bool  { return h[i].count < h[j].count }
func (h ssHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *ssHeap) Push(x interface{}) { e := x.(*ssEntry); e.index = len(*h); *h = append(*h, e) }
func (h *ssHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
