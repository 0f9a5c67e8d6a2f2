package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	habf "repro"
	"repro/internal/dataset"
	"repro/internal/wire"
)

// backendsUnderTest mirrors the conformance suite's selection: every
// registered backend, or just the one named by FILTERCORE_BACKEND (set
// by the CI matrix).
func backendsUnderTest(t *testing.T) []string {
	if only := os.Getenv("FILTERCORE_BACKEND"); only != "" {
		return []string{only}
	}
	return habf.Backends()
}

// newBackendFilter builds a small sharded filter on the named backend.
func newBackendFilter(t testing.TB, backend string, keys int) (*habf.Sharded, dataset.Pair) {
	t.Helper()
	data := dataset.YCSB(keys, keys, 7)
	negatives := make([]habf.WeightedKey, keys)
	for i := range negatives {
		negatives[i] = habf.WeightedKey{Key: data.Negatives[i], Cost: 1}
	}
	f, err := habf.NewSharded(data.Positives, negatives, uint64(10*keys),
		habf.WithShards(4), habf.WithBackend(backend))
	if err != nil {
		t.Fatal(err)
	}
	return f, data
}

// TestServerBackendEndToEnd drives the full serving cycle over every
// registered backend through the HTTP API: query → add → snapshot →
// restore → query, with zero false negatives at every step, and the
// backend surfaced in /v1/stats and /metrics. The binary protocol
// answers contains, a batch and an Add on the same server, agreeing
// with HTTP.
func TestServerBackendEndToEnd(t *testing.T) {
	for _, backend := range backendsUnderTest(t) {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			filter, data := newBackendFilter(t, backend, 1500)
			path := filepath.Join(t.TempDir(), "backend.snap")
			srv, hs := newTestServer(t, filter, Config{SnapshotPath: path})

			// Members answer true over both body forms; negatives agree
			// with the direct filter.
			for i := 0; i < 300; i++ {
				if !containsJSON(t, hs.URL, data.Positives[i]) {
					t.Fatalf("false negative over HTTP: member %d", i)
				}
				if got, want := containsRaw(t, hs.URL, data.Negatives[i]), filter.Contains(data.Negatives[i]); got != want {
					t.Fatalf("negative %d: HTTP=%v direct=%v", i, got, want)
				}
			}

			// Adds are queryable on ack — including on the static xor
			// backend, where they ride the pending buffer.
			var added [][]byte
			for i := 0; i < 120; i++ {
				key := []byte(fmt.Sprintf("e2e-%s-%06d", backend, i))
				added = append(added, key)
				resp, err := http.Post(hs.URL+"/v1/add", "application/octet-stream", strings.NewReader(string(key)))
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					t.Fatalf("add: HTTP %d", resp.StatusCode)
				}
				if !containsRaw(t, hs.URL, key) {
					t.Fatalf("acked add %q not queryable", key)
				}
			}

			// The binary protocol answers as HTTP does, and its Add is
			// queryable on ack over both.
			c, err := wire.Dial(startBinary(t, srv))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			batch := append(append([][]byte{}, data.Positives[:100]...), data.Negatives[:100]...)
			for _, key := range batch {
				got, err := c.Contains(key)
				if err != nil {
					t.Fatal(err)
				}
				if want := containsRaw(t, hs.URL, key); got != want {
					t.Fatalf("contains %q: binary=%v HTTP=%v", key, got, want)
				}
			}
			overBinary, err := c.ContainsBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			overHTTP, err := httpContainsBatch(hs.URL, batch)
			if err != nil {
				t.Fatal(err)
			}
			for i := range batch {
				if overBinary[i] != overHTTP[i] {
					t.Fatalf("batch key %d: binary=%v HTTP=%v", i, overBinary[i], overHTTP[i])
				}
			}
			key := []byte("e2e-binary-" + backend)
			added = append(added, key)
			if err := c.Add(key); err != nil {
				t.Fatal(err)
			}
			if ok, err := c.Contains(key); err != nil || !ok {
				t.Fatalf("binary-acked add %q over binary: %v, %v", key, ok, err)
			}
			if !containsRaw(t, hs.URL, key) {
				t.Fatalf("binary-acked add %q not queryable over HTTP", key)
			}

			// /v1/stats names the backend.
			resp, err := http.Get(hs.URL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			var st statsResponse
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.Backend != backend {
				t.Fatalf("stats backend %q, want %q", st.Backend, backend)
			}

			// /metrics carries the backend info gauge.
			resp, err = http.Get(hs.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			metrics, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf(`habfserved_backend_info{backend=%q`, backend)
			if !strings.Contains(string(metrics), want) {
				t.Fatalf("metrics missing %s:\n%s", want, metrics)
			}

			// Snapshot through the API, restore with the public loader:
			// the backend round-trips and no acked key is lost.
			resp, body := postJSON(t, hs.URL+"/v1/snapshot", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("snapshot: HTTP %d: %s", resp.StatusCode, body)
			}
			restored, err := habf.LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Backend() != backend {
				t.Fatalf("restored backend %q, want %q", restored.Backend(), backend)
			}
			for i, key := range data.Positives {
				if !restored.Contains(key) {
					t.Fatalf("false negative after restore: member %d", i)
				}
			}
			for _, key := range added {
				if !restored.Contains(key) {
					t.Fatalf("restore lost acked key %q", key)
				}
			}
		})
	}
}
