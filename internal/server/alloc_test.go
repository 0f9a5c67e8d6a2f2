package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// TestBinaryContainsSteadyStateAllocs pins the allocation contract of
// the binary OpContains arm: with the response scratch warm, answering a
// decoded single-key frame — the request core's contains, its metrics
// and AppendContainsResp into the reused output — allocates nothing.
// The frame goes through the connection loop's own answer, so the test
// covers the code that serves it.
func TestBinaryContainsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race for alloc counts")
	}
	filter, data := newTestFilter(t, 2048)
	srv, err := New(Config{Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBinaryServer(srv)

	keys := [][]byte{data.Positives[0], data.Negatives[0]}
	req := wire.Request{Op: wire.OpContains, ID: 42}
	var results []bool
	out := make([]byte, 0, 64)
	i := 0
	arm := func() {
		req.Key = keys[i%len(keys)]
		if out, err = bs.answer(out, &req, &results); err != nil {
			t.Fatal(err)
		}
		i++
	}
	arm() // warm the response scratch
	if avg := testing.AllocsPerRun(100, arm); avg != 0 {
		t.Errorf("binary contains arm allocates %.1f objects per frame, want 0", avg)
	}
	if n := srv.mBinContains.Value(); n != 102 {
		t.Errorf("binary_contains requests = %d, want 102", n)
	}
}

// TestBinaryBatchSteadyStateAllocs pins the allocation contract of the
// binary OpContainsBatch arm: with the connection's result buffer and
// response scratch warm, answering a decoded batch frame — the request
// core's containsBatch and AppendBatchResp into the reused output —
// allocates nothing. Like the test above, it calls the connection
// loop's own answer.
func TestBinaryBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race for alloc counts")
	}
	filter, data := newTestFilter(t, 2048)
	srv, err := New(Config{Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBinaryServer(srv)

	keys := append(append([][]byte{}, data.Positives[:128]...), data.Negatives[:128]...)
	req := wire.Request{Op: wire.OpContainsBatch, ID: 42, Keys: keys}
	var results []bool
	out := make([]byte, 0, 64)
	arm := func() {
		if out, err = bs.answer(out, &req, &results); err != nil {
			t.Fatal(err)
		}
	}
	arm() // warm the result buffer, response scratch and shard pool
	if avg := testing.AllocsPerRun(50, arm); avg != 0 {
		t.Errorf("binary batch arm allocates %.1f objects per frame, want 0", avg)
	}
	for i, key := range keys {
		if results[i] != filter.Contains(key) {
			t.Fatalf("batch answer %d = %v, filter says %v", i, results[i], !results[i])
		}
	}
}

// TestOversizedBatchRefusedEarly pins that /v1/contains_batch refuses a
// batch over wire.MaxBatchKeys before it decodes any key: a body of 16
// times the cap in one-byte keys (about 7 MB of JSON, under the body
// cap) must get its 413 for fewer allocated objects than the cap has
// keys, and under 32 MiB (the body's buffer grows to about twice its
// size). Decoding the whole body into one slice per key first costs
// over a million objects and about 170 MB. The second body leads with
// an escaped key, as encoders that escape '/' write it.
func TestOversizedBatchRefusedEarly(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race for alloc counts")
	}
	filter, _ := newTestFilter(t, 300)
	srv, err := New(Config{Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 16*wire.MaxBatchKeys)
	for i := range keys {
		keys[i] = []byte{byte(i)}
	}
	body, err := json.Marshal(map[string]any{"keys": keys})
	if err != nil {
		t.Fatal(err)
	}
	keys = nil
	escaped := bytes.Replace(body, []byte(`["`), []byte(`["\/w==","`), 1)
	for name, body := range map[string][]byte{"plain": body, "escaped key": escaped} {
		req := httptest.NewRequest(http.MethodPost, "/v1/contains_batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		srv.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)

		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: batch of %d keys: HTTP %d, want 413", name, 16*wire.MaxBatchKeys, rec.Code)
		}
		mallocs, allocated := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("%s: refusing %d keys: %d allocations, %d bytes", name, 16*wire.MaxBatchKeys, mallocs, allocated)
		if mallocs >= wire.MaxBatchKeys || allocated >= 32<<20 {
			t.Errorf("%s: refusing an oversized batch allocated %d objects (%d bytes), want under %d objects and %d bytes",
				name, mallocs, allocated, wire.MaxBatchKeys, 32<<20)
		}
	}
}
