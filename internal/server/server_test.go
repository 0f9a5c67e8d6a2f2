package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	habf "repro"
	"repro/internal/dataset"
	"repro/internal/wire"
)

// newTestFilter builds a small sharded filter over deterministic keys.
func newTestFilter(t testing.TB, keys int) (*habf.Sharded, dataset.Pair) {
	t.Helper()
	data := dataset.YCSB(keys, keys, 7)
	negatives := make([]habf.WeightedKey, keys)
	for i := range negatives {
		negatives[i] = habf.WeightedKey{Key: data.Negatives[i], Cost: 1}
	}
	f, err := habf.NewSharded(data.Positives, negatives, uint64(10*keys), habf.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	return f, data
}

// newTestServer wires a Server around filter and serves it via httptest.
func newTestServer(t testing.TB, filter *habf.Sharded, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Filter = filter
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// filterRequests counts the HTTP requests that reached the filter: the
// contains, contains_batch and add series of requests_total, each
// counted only after the filter has answered.
func filterRequests(srv *Server) uint64 {
	return srv.mContains.Value() + srv.mContainsBatch.Value() + srv.mAdd.Value()
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// containsJSON queries /v1/contains with the JSON body form.
func containsJSON(t testing.TB, base string, key []byte) bool {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/contains", map[string]any{"key": key})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("contains: HTTP %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Present bool `json:"present"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("contains: %v in %q", err, body)
	}
	return out.Present
}

// containsRaw queries /v1/contains with the octet-stream fast path.
func containsRaw(t testing.TB, base string, key []byte) bool {
	t.Helper()
	resp, err := http.Post(base+"/v1/contains", "application/octet-stream", bytes.NewReader(key))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw contains: HTTP %d: %s", resp.StatusCode, body)
	}
	switch string(body) {
	case "1":
		return true
	case "0":
		return false
	}
	t.Fatalf("raw contains: unexpected body %q", body)
	return false
}

// TestEndpointsAgree pins the core contract: the JSON single-key path,
// the raw single-key path and the batch path all answer exactly like
// the in-process filter, and members are never denied.
func TestEndpointsAgree(t *testing.T) {
	filter, data := newTestFilter(t, 2000)
	_, hs := newTestServer(t, filter, Config{})

	probes := make([][]byte, 0, 400)
	probes = append(probes, data.Positives[:200]...)
	probes = append(probes, data.Negatives[:200]...)

	want := filter.ContainsBatch(probes)
	enc := make([]string, len(probes))
	for i, k := range probes {
		enc[i] = base64.StdEncoding.EncodeToString(k)
	}
	resp, body := postJSON(t, hs.URL+"/v1/contains_batch", map[string]any{"keys": enc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("contains_batch: HTTP %d: %s", resp.StatusCode, body)
	}
	var batch struct {
		Present []bool `json:"present"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Present) != len(probes) {
		t.Fatalf("contains_batch: %d results for %d keys", len(batch.Present), len(probes))
	}

	for i, key := range probes {
		if got := containsJSON(t, hs.URL, key); got != want[i] {
			t.Fatalf("probe %d: JSON contains %v, direct %v", i, got, want[i])
		}
		if got := containsRaw(t, hs.URL, key); got != want[i] {
			t.Fatalf("probe %d: raw contains %v, direct %v", i, got, want[i])
		}
		if batch.Present[i] != want[i] {
			t.Fatalf("probe %d: batch %v, direct %v", i, batch.Present[i], want[i])
		}
		if i < 200 && !want[i] {
			t.Fatalf("member %d denied by direct filter", i)
		}
	}
}

// TestAddThenContains checks a key added over HTTP is queryable at once,
// through both body forms.
func TestAddThenContains(t *testing.T) {
	filter, _ := newTestFilter(t, 500)
	_, hs := newTestServer(t, filter, Config{})

	jsonKey := []byte("fresh-json-key")
	resp, body := postJSON(t, hs.URL+"/v1/add", map[string]any{"key": jsonKey})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add: HTTP %d: %s", resp.StatusCode, body)
	}
	rawKey := []byte("fresh-raw-key")
	rr, err := http.Post(hs.URL+"/v1/add", "application/octet-stream", bytes.NewReader(rawKey))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusNoContent {
		t.Fatalf("raw add: HTTP %d", rr.StatusCode)
	}
	for _, key := range [][]byte{jsonKey, rawKey} {
		if !containsJSON(t, hs.URL, key) {
			t.Fatalf("added key %q denied", key)
		}
	}
}

// TestSnapshotRoundTrip drives /v1/snapshot and restores the file with
// the public loader: the restored filter must serve every member.
func TestSnapshotRoundTrip(t *testing.T) {
	filter, data := newTestFilter(t, 2000)
	path := filepath.Join(t.TempDir(), "filter.snap")
	_, hs := newTestServer(t, filter, Config{SnapshotPath: path})

	resp, body := postJSON(t, hs.URL+"/v1/snapshot", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: HTTP %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Path string  `json:"path"`
		Ms   float64 `json:"ms"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Path != path {
		t.Fatalf("snapshot path %q, want %q", out.Path, path)
	}

	restored, err := habf.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range data.Positives {
		if !restored.Contains(key) {
			t.Fatalf("false negative after restore: member %d", i)
		}
	}
	if got, want := restored.Stats().Shards, filter.NumShards(); got != want {
		t.Fatalf("restored %d shards, want %d", got, want)
	}
}

// TestSnapshotDefaultPath uses the configured default target.
func TestSnapshotDefaultPath(t *testing.T) {
	filter, _ := newTestFilter(t, 300)
	path := filepath.Join(t.TempDir(), "default.snap")
	_, hs := newTestServer(t, filter, Config{SnapshotPath: path})
	resp, body := postJSON(t, hs.URL+"/v1/snapshot", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: HTTP %d: %s", resp.StatusCode, body)
	}
	if _, err := habf.LoadFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRejectsClientPath: POST /v1/snapshot writes only the
// operator's configured path. A body naming a path is refused with 400
// and writes no file, neither the named one nor the configured one, with
// or without a configured path.
func TestSnapshotRejectsClientPath(t *testing.T) {
	filter, _ := newTestFilter(t, 300)
	dir := t.TempDir()
	configured := filepath.Join(dir, "operator.snap")
	named := filepath.Join(dir, "client.snap")
	for _, cfg := range []Config{{SnapshotPath: configured}, {}} {
		_, hs := newTestServer(t, filter, cfg)
		for _, body := range []map[string]any{{"path": named}, {"path": ""}, {"dir": dir}} {
			resp, out := postJSON(t, hs.URL+"/v1/snapshot", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("config %+v, body %v: HTTP %d (%s), want 400", cfg, body, resp.StatusCode, out)
			}
		}
		for _, p := range []string{configured, named} {
			if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("config %+v: a refused snapshot request left %s (stat: %v)", cfg, p, err)
			}
		}
	}
}

// TestStatsEndpoint spot-checks the operational document.
func TestStatsEndpoint(t *testing.T) {
	filter, data := newTestFilter(t, 1000)
	srv, hs := newTestServer(t, filter, Config{})
	for i := 0; i < 64; i++ {
		containsRaw(t, hs.URL, data.Positives[i])
	}

	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Keys != 1000 {
		t.Fatalf("stats keys %d, want 1000", st.Keys)
	}
	if len(st.Shards) != filter.NumShards() {
		t.Fatalf("stats %d shards, want %d", len(st.Shards), filter.NumShards())
	}
	var shardKeys int
	for _, sh := range st.Shards {
		shardKeys += sh.Keys
	}
	if shardKeys != 1000 {
		t.Fatalf("per-shard keys sum %d, want 1000", shardKeys)
	}
	if got := filterRequests(srv); got != 64 {
		t.Fatalf("%d requests reached the filter, want 64", got)
	}
}

// TestMetricsEndpoint checks the Prometheus exposition renders the
// serving counters with believable values. The deprecated coalesce
// gauges must both read the single-key contains answered over HTTP and
// binary, so their ratio stays 1; batches do not count. It then pins
// the exposition's series: after one request of every operation on
// both transports, one refused request and one 405, the sorted series
// names with their label sets must match testdata/metrics_series.txt,
// which lists today's. bench/trace.go reads some of them by name.
func TestMetricsEndpoint(t *testing.T) {
	filter, data := newTestFilter(t, 500)
	srv, hs := newTestServer(t, filter, Config{SnapshotPath: filepath.Join(t.TempDir(), "metrics.snap")})
	for i := 0; i < 10; i++ {
		containsRaw(t, hs.URL, data.Positives[i])
	}
	c, err := wire.Dial(startBinary(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if _, err := c.Contains(data.Negatives[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.ContainsBatch(data.Positives[:32]); err != nil {
		t.Fatal(err)
	}
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	text := scrape()
	for _, want := range []string{
		`habfserved_requests_total{endpoint="contains"} 10`,
		"# TYPE habfserved_requests_total counter",
		"# TYPE habfserved_contains_duration_seconds histogram",
		"habfserved_contains_duration_seconds_count 10",
		`habfserved_contains_duration_seconds_bucket{le="+Inf"} 10`,
		"habfserved_filter_keys 500",
		fmt.Sprintf("habfserved_filter_shards %d", filter.NumShards()),
		"habfserved_filter_pending_keys 0",
		"habfserved_coalesce_keys 15",
		"habfserved_coalesce_batches 15",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
	for _, gone := range []string{"habfserved_filter_restored_shards", "habfserved_filter_absorbs"} {
		if strings.Contains(text, gone) {
			t.Fatalf("metrics output still carries %q", gone)
		}
	}

	// The rest of the operations, once each.
	if _, err := httpContainsBatch(hs.URL, data.Positives[:4]); err != nil {
		t.Fatal(err)
	}
	if err := httpAdd(hs.URL, []byte("metrics-http-add")); err != nil {
		t.Fatal(err)
	}
	if err := httpSnapshot(hs.URL); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/snapshot", "/v1/epoch", "/v1/stats", "/v1/contains"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if resp, _ := postJSON(t, hs.URL+"/v1/add", map[string]any{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("keyless add: HTTP %d, want 400", resp.StatusCode)
	}
	if err := c.Add([]byte("metrics-binary-add")); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	text = scrape()
	if want := "habfserved_request_errors_total 2\n"; !strings.Contains(text, want) {
		t.Fatalf("metrics output missing %q after a 405 and a 400:\n%s", want, text)
	}
	var series []string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.HasPrefix(line, "#") {
			series = append(series, line[:strings.LastIndexByte(line, ' ')])
		}
	}
	sort.Strings(series)
	golden, err := os.ReadFile(filepath.Join("testdata", "metrics_series.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(series, "\n"), strings.TrimSpace(string(golden)); got != want {
		t.Fatalf("metrics series changed; got:\n%s\nwant (testdata/metrics_series.txt):\n%s", got, want)
	}
}

// TestStatsReportsTuning pins that /v1/stats surfaces the effective
// backend tuning so operators can confirm what a server is actually
// running with (the flag-to-wire contract behind habfserved -tune).
func TestStatsReportsTuning(t *testing.T) {
	data := dataset.YCSB(500, 500, 7)
	negatives := make([]habf.WeightedKey, 500)
	for i := range negatives {
		negatives[i] = habf.WeightedKey{Key: data.Negatives[i], Cost: 1}
	}
	filter, err := habf.NewSharded(data.Positives, negatives, 5000,
		habf.WithShards(2), habf.WithBackend("bloom"), habf.WithTuning("k=8"))
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, filter, Config{})

	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Backend != "bloom" {
		t.Fatalf("stats backend %q, want bloom", st.Backend)
	}
	if want := filter.Tuning(); st.Tuning != want || st.Tuning == "" {
		t.Fatalf("stats tuning %q, want %q", st.Tuning, want)
	}
	if !strings.Contains(st.Tuning, "k=8") {
		t.Fatalf("stats tuning %q missing requested knob k=8", st.Tuning)
	}
}

// TestRequestErrors pins the failure-mode statuses.
func TestRequestErrors(t *testing.T) {
	filter, _ := newTestFilter(t, 200)
	srv, hs := newTestServer(t, filter, Config{})

	if resp, err := http.Get(hs.URL + "/v1/contains"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET contains: HTTP %d, want 405", resp.StatusCode)
		}
	}
	if resp, err := http.Post(hs.URL+"/v1/contains", "application/json", strings.NewReader("{broken")); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("broken JSON: HTTP %d, want 400", resp.StatusCode)
		}
	}
	if resp, _ := postJSON(t, hs.URL+"/v1/contains_batch", map[string]any{"keys": [][]byte{}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: HTTP %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, hs.URL+"/v1/snapshot", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pathless snapshot: HTTP %d, want 400", resp.StatusCode)
	}
	if got := filterRequests(srv); got != 0 {
		t.Fatalf("%d error requests reached the filter", got)
	}
}

// TestOversizedBodyRejected pins the truncation bugfix: a raw key (or
// batch/snapshot body) over the body cap must be rejected with 413 —
// never cut at the limit and then queried or Add-acked as the
// truncated prefix, which would be a confident answer for the wrong
// key.
func TestOversizedBodyRejected(t *testing.T) {
	filter, _ := newTestFilter(t, 300)
	srv, hs := newTestServer(t, filter, Config{})

	oversized := bytes.Repeat([]byte{'K'}, maxBodyBytes+1)

	for _, ep := range []string{"/v1/contains", "/v1/add"} {
		resp, err := http.Post(hs.URL+ep, "application/octet-stream", bytes.NewReader(oversized))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized raw key: HTTP %d, want 413", ep, resp.StatusCode)
		}
	}
	// The old truncating reader would have inserted the first
	// maxBodyBytes bytes as a key; a rejected Add must leave the filter
	// untouched.
	if st := filter.Stats(); st.Added != 0 || st.Keys != 300 {
		t.Fatalf("rejected oversized Add still changed the filter: %+v — the key was silently cut and inserted", st)
	}

	bigBatch, err := json.Marshal(map[string]any{"keys": []string{base64.StdEncoding.EncodeToString(oversized)}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/contains_batch", "application/json", bytes.NewReader(bigBatch))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch body: HTTP %d, want 413", resp.StatusCode)
	}

	bigSnap := append([]byte(`{"path": "`), bytes.Repeat([]byte{'p'}, maxBodyBytes)...)
	bigSnap = append(bigSnap, `"}`...)
	resp, err = http.Post(hs.URL+"/v1/snapshot", "application/json", bytes.NewReader(bigSnap))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized snapshot body: HTTP %d, want 413", resp.StatusCode)
	}

	if got := filterRequests(srv); got != 0 {
		t.Fatalf("%d oversized requests reached the filter", got)
	}
}

// TestContentTypeMediaTypeParsing pins the octet-stream detection
// bugfix: media-type parameters must still select the raw path, and a
// present-but-malformed Content-Type is a 400, not a silent JSON
// fallback that misparses a raw key.
func TestContentTypeMediaTypeParsing(t *testing.T) {
	filter, data := newTestFilter(t, 500)
	_, hs := newTestServer(t, filter, Config{})
	member := data.Positives[0]

	for _, ct := range []string{
		"application/octet-stream",
		"application/octet-stream; charset=binary",
		"application/octet-stream;charset=binary",
		"APPLICATION/OCTET-STREAM",
	} {
		resp, err := http.Post(hs.URL+"/v1/contains", ct, bytes.NewReader(member))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || string(body) != "1" {
			t.Fatalf("Content-Type %q: HTTP %d body %q, want 200 %q", ct, resp.StatusCode, body, "1")
		}
	}

	for _, ct := range []string{
		"application/octet-stream; charset",
		"application/",
		"bogus; ;",
	} {
		resp, err := http.Post(hs.URL+"/v1/contains", ct, bytes.NewReader(member))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed Content-Type %q: HTTP %d, want 400", ct, resp.StatusCode)
		}
	}
}

// TestEmptyKeyRejected pins the contains/add consistency bugfix: an
// empty key gets 400 from both endpoints and both body forms — an
// empty-bodied contains must not get a membership answer for the empty
// key.
func TestEmptyKeyRejected(t *testing.T) {
	filter, _ := newTestFilter(t, 300)
	srv, hs := newTestServer(t, filter, Config{})

	for _, ep := range []string{"/v1/contains", "/v1/add"} {
		resp, err := http.Post(hs.URL+ep, "application/octet-stream", bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s empty raw body: HTTP %d, want 400", ep, resp.StatusCode)
		}
		if resp, _ := postJSON(t, hs.URL+ep, map[string]any{"key": ""}); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s empty JSON key: HTTP %d, want 400", ep, resp.StatusCode)
		}
	}
	if resp, _ := postJSON(t, hs.URL+"/v1/contains_batch", map[string]any{"keys": []string{""}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch with empty key: HTTP %d, want 400", resp.StatusCode)
	}
	if got := filterRequests(srv); got != 0 {
		t.Fatalf("%d empty-key requests reached the filter", got)
	}
}

// TestConcurrentContainsAndAdd hammers the single-key read and write
// endpoints from many goroutines at once — the -race test of the
// serving layer's no-external-locking claim, end to end through HTTP.
func TestConcurrentContainsAndAdd(t *testing.T) {
	filter, data := newTestFilter(t, 2000)
	_, hs := newTestServer(t, filter, Config{})

	const (
		readers = 6
		writers = 3
		perG    = 150
	)
	client := hs.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: readers + writers + 1}

	var wg sync.WaitGroup
	errc := make(chan error, readers+writers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := data.Positives[(r*perG+i)%len(data.Positives)]
				resp, err := client.Post(hs.URL+"/v1/contains", "application/octet-stream", bytes.NewReader(key))
				if err != nil {
					errc <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if string(body) != "1" {
					errc <- fmt.Errorf("reader %d: member denied (%q)", r, body)
					return
				}
			}
		}(r)
	}
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("hammer-%d-%06d", wr, i)
				resp, err := client.Post(hs.URL+"/v1/add", "application/octet-stream", strings.NewReader(key))
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					errc <- fmt.Errorf("writer %d: HTTP %d", wr, resp.StatusCode)
					return
				}
			}
		}(wr)
	}
	// One goroutine scrapes the operational endpoints throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			for _, p := range []string{"/v1/stats", "/metrics"} {
				resp, err := client.Get(hs.URL + p)
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Every acked write must be visible afterwards.
	filter.WaitRebuilds()
	for wr := 0; wr < writers; wr++ {
		for i := 0; i < perG; i += 37 {
			key := fmt.Sprintf("hammer-%d-%06d", wr, i)
			if !filter.Contains([]byte(key)) {
				t.Fatalf("acked add %q lost", key)
			}
		}
	}
}

// TestOverCap pins the count /v1/contains_batch refuses a batch by
// before decoding it: it must agree with the length json.Unmarshal
// gives the "keys" field, including for bodies with commas elsewhere,
// an escaped key, a differently cased or repeated field, and invalid
// JSON (never over the cap; decoding reports it).
func TestOverCap(t *testing.T) {
	keys := func(n int, first string) string {
		return `["` + first + `"` + strings.Repeat(`,"YQ=="`, n-1) + `]`
	}
	zeros := "[0" + strings.Repeat(",0", wire.MaxBatchKeys) + "]"
	for name, c := range map[string]struct {
		body string
		want bool
	}{
		"small":                     {`{"keys": ["YQ==", "YmI="]}`, false},
		"commas elsewhere":          {`{"other": ` + zeros + `, "keys": ["YQ==", "YmI="]}`, false},
		"at the cap":                {`{"keys": ` + keys(wire.MaxBatchKeys, "YQ==") + `}`, false},
		"at the cap, commas":        {`{"keys": ` + keys(wire.MaxBatchKeys, "YQ==") + `, "x": ",,"}`, false},
		"at the cap, escaped quote": {`{"keys": ` + keys(wire.MaxBatchKeys, `a\",\"b`) + `}`, false},
		"nested array":              {`{"keys": ["YQ==", ` + zeros + `]}`, false},
		"over the cap":              {`{"keys": ` + keys(wire.MaxBatchKeys+1, "YQ==") + `}`, true},
		"over, escaped key":         {`{"keys": ` + keys(wire.MaxBatchKeys+1, `\/w==`) + `}`, true},
		"over, escaped quote":       {`{"keys": ` + keys(wire.MaxBatchKeys+1, `a\",\"b`) + `}`, true},
		"over, field cased KEYS":    {`{"KEYS": ` + keys(wire.MaxBatchKeys+1, "YQ==") + `}`, true},
		"over, then repeated":       {`{"keys": ` + keys(wire.MaxBatchKeys+1, "YQ==") + `, "keys": ["YQ=="]}`, false},
		"over, invalid JSON":        {`{"keys": ` + keys(wire.MaxBatchKeys+1, "YQ==") + `,}`, false},
	} {
		if got := overCap([]byte(c.body)); got != c.want {
			t.Errorf("%s: overCap = %v, want %v", name, got, c.want)
		}
		var req struct {
			Keys []json.RawMessage `json:"keys"`
		}
		if err := json.Unmarshal([]byte(c.body), &req); err == nil && (len(req.Keys) > wire.MaxBatchKeys) != c.want {
			t.Errorf("%s: json.Unmarshal reads %d keys, the case says over the cap is %v", name, len(req.Keys), c.want)
		}
	}
}

// TestArrayLen pins the element count /v1/contains_batch checks against
// the cap before it decodes: commas, brackets and escaped quotes inside
// strings, and the elements of nested values, do not count.
func TestArrayLen(t *testing.T) {
	for body, want := range map[string]int{
		`[]`:                                     0,
		"[ \n\t]":                                0,
		`null`:                                   0,
		`"a,b"`:                                  0,
		`{"k": [1, 2]}`:                          0,
		`["YQ=="]`:                               1,
		`["YQ==", "YmI="]`:                       2,
		`["a,b", "c]d", "e"]`:                    3,
		`["\"", "\\", "x"]`:                      3,
		`["\/w==", "\\\"]"]`:                     2,
		`[[1, 2], {"a": [3, 4], "b": "5,6"}, 7]`: 3,
	} {
		if !json.Valid([]byte(body)) {
			t.Fatalf("%s: not valid JSON", body)
		}
		if got := arrayLen([]byte(body)); got != want {
			t.Errorf("arrayLen(%s) = %d, want %d", body, got, want)
		}
	}
}
