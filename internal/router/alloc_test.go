package router

import (
	"testing"
)

// TestContainsBatchIntoAllocsBounded pins the pooled-buffer win in the
// chunk fan-out: per-attempt key copies and result buffers come from
// attemptBufPool, so a batch's allocation count is a small constant per
// chunk (the race channel, the attempt closure and its guard, which
// cannot be pooled without letting a late loser touch a recycled
// buffer) — it must not scale with the number of keys. Before pooling, every attempt
// allocated an O(keys) result slice.
func TestContainsBatchIntoAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race for alloc counts")
	}
	f, keys := buildFilter(t, 512)
	addr, _ := startReplica(t, f, nil)
	r, err := New(Config{Replicas: []string{addr}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()

	dst := make([]bool, len(keys))
	// Warm the connection pool and attempt buffers at full batch size.
	for i := 0; i < 4; i++ {
		if err := r.ContainsBatchInto(dst, keys); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}
	small := testing.AllocsPerRun(20, func() {
		if err := r.ContainsBatchInto(dst[:64], keys[:64]); err != nil {
			t.Fatalf("small batch: %v", err)
		}
	})
	large := testing.AllocsPerRun(20, func() {
		if err := r.ContainsBatchInto(dst, keys); err != nil {
			t.Fatalf("large batch: %v", err)
		}
	})
	// 8x the keys must not mean 8x the allocations: the per-chunk
	// control overhead is constant and result buffers are pooled.
	if large > small+8 {
		t.Errorf("allocations scale with batch size: %.1f at 64 keys vs %.1f at 512", small, large)
	}
	if large > 24 {
		t.Errorf("large batch allocates %.1f objects, want a small constant (≤24)", large)
	}
}
