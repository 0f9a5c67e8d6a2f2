package server

import (
	"testing"

	"repro/internal/wire"
)

// TestBinaryBatchSteadyStateAllocs pins the allocation contract of the
// binary OpContainsBatch arm: with the connection's result buffer and
// response scratch warm, answering a batch frame — ContainsBatchInto
// plus AppendBatchResp into the reused output — allocates nothing. The
// test mirrors the arm in (*BinaryServer).handle statement for
// statement; if the handler grows an allocation, so does this.
func TestBinaryBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race for alloc counts")
	}
	filter, data := newTestFilter(t, 2048)
	srv, err := New(Config{Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	b := serverBatcher{s: srv}

	keys := append(append([][]byte{}, data.Positives[:128]...), data.Negatives[:128]...)
	var results []bool
	out := make([]byte, 0, 64)
	arm := func() {
		if cap(results) < len(keys) {
			results = make([]bool, len(keys))
		}
		results = results[:len(keys)]
		b.ContainsBatchInto(results, keys)
		out = wire.AppendBatchResp(out[:0], 42, results)
	}
	arm() // warm the result buffer, response scratch and shard pool
	if avg := testing.AllocsPerRun(50, arm); avg != 0 {
		t.Errorf("binary batch arm allocates %.1f objects per frame, want 0", avg)
	}
}

// TestCoalescerDispatchSteadyStateAllocs pins the dispatch path: a
// coalescer reuses its per-dispatcher result buffer for
// ContainsBatchInto, so a steady stream of
// coalesced queries allocates only what the request/response machinery
// itself pins (pooled requests, reused channels) — the batch dispatch
// contributes nothing per key. Measured end to end: the per-query alloc
// count must stay far below one object per key batched.
func TestCoalescerDispatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race for alloc counts")
	}
	filter, data := newTestFilter(t, 2048)
	co := newCoalescer(filter, coalesceMaxBatch, coalesceDispatchers)
	defer co.Close()
	key := data.Positives[0]
	co.Contains(key) // warm pools
	if avg := testing.AllocsPerRun(100, func() { co.Contains(key) }); avg > 1 {
		t.Errorf("coalesced Contains allocates %.1f objects per query, want ≤1", avg)
	}
}
