package server

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	habf "repro"
	"repro/internal/wire"
)

// TestSnapshotDownload pins the replication pull path: GET /v1/snapshot
// streams a loadable container stamped with backend and epoch, and the
// restored filter answers every key the primary's does.
func TestSnapshotDownload(t *testing.T) {
	filter, data := newTestFilter(t, 500)
	_, hs := newTestServer(t, filter, Config{})

	resp, err := http.Get(hs.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/snapshot: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Habf-Backend"); got != filter.Backend() {
		t.Fatalf("X-Habf-Backend = %q, want %q", got, filter.Backend())
	}
	epoch, err := strconv.ParseUint(resp.Header.Get("X-Habf-Epoch"), 10, 64)
	if err != nil {
		t.Fatalf("X-Habf-Epoch %q: %v", resp.Header.Get("X-Habf-Epoch"), err)
	}
	if want := filter.Epoch(); epoch != want {
		t.Fatalf("X-Habf-Epoch = %d, filter epoch %d", epoch, want)
	}

	restored, err := habf.Load(body)
	if err != nil {
		t.Fatalf("Load(downloaded snapshot): %v", err)
	}
	for _, key := range data.Positives {
		if !restored.Contains(key) {
			t.Fatalf("restored snapshot lost key %q", key)
		}
	}

	// A truncated download must fail the container checksum, never
	// install: the guarantee a follower's mid-pull primary death relies on.
	if _, err := habf.Load(body[:len(body)/2]); err == nil {
		t.Fatal("Load accepted a truncated snapshot body")
	}
}

// TestEpochEndpoint pins the follower's freshness probe: decimal text,
// equal to the filter's epoch, advancing with writes, GET-only.
func TestEpochEndpoint(t *testing.T) {
	filter, _ := newTestFilter(t, 200)
	_, hs := newTestServer(t, filter, Config{})

	fetch := func() uint64 {
		t.Helper()
		resp, err := http.Get(hs.URL + "/v1/epoch")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/epoch: HTTP %d, %v", resp.StatusCode, err)
		}
		epoch, err := strconv.ParseUint(strings.TrimSpace(string(body)), 10, 64)
		if err != nil {
			t.Fatalf("epoch body %q: %v", body, err)
		}
		return epoch
	}

	before := fetch()
	if want := filter.Epoch(); before != want {
		t.Fatalf("epoch endpoint = %d, filter epoch %d", before, want)
	}
	filter.Add([]byte("epoch-bump"))
	if after := fetch(); after <= before {
		t.Fatalf("epoch did not advance after Add: %d -> %d", before, after)
	}

	resp, err := http.Post(hs.URL+"/v1/epoch", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/epoch: HTTP %d, want 405", resp.StatusCode)
	}
}

// TestReadOnlyRejectsWrites pins the follower write contract: a
// server over a filter-only load (what a follower serves) answers
// /v1/add with 307 and a Location at the primary (or 403 with no
// primary), binary OpAdd gets an error frame, stats report the follower
// role, and reads keep working throughout.
func TestReadOnlyRejectsWrites(t *testing.T) {
	built, data := newTestFilter(t, 200)
	var snap bytes.Buffer
	if err := built.SaveFilters(&snap); err != nil {
		t.Fatal(err)
	}
	filter, err := habf.Load(snap.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	srv, hs := newTestServer(t, filter, Config{Primary: "http://primary:8080"})
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(stats), `"role":"follower"`) {
		t.Fatalf("stats of a read-only server: %s, %v; want role follower", stats, err)
	}

	noRedirect := &http.Client{
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	resp, err = noRedirect.Post(hs.URL+"/v1/add", "application/octet-stream",
		strings.NewReader("new-key"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower add: HTTP %d, want 307", resp.StatusCode)
	}
	if got, want := resp.Header.Get("Location"), "http://primary:8080/v1/add"; got != want {
		t.Fatalf("Location = %q, want %q", got, want)
	}
	if filter.Contains([]byte("new-key")) {
		t.Fatal("rejected add mutated the follower's filter")
	}
	if !containsJSON(t, hs.URL, data.Positives[0]) {
		t.Fatal("read-only server stopped answering reads")
	}

	// Binary writes are rejected with an error frame on the same server.
	addr := startBinary(t, srv)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if ok, err := c.Contains(data.Positives[0]); err != nil || !ok {
		t.Fatalf("binary contains on follower = %v, %v", ok, err)
	}
	if err := c.Add([]byte("new-key")); err == nil {
		t.Fatal("binary Add succeeded on a read-only server")
	}

	// No primary configured: the redirect degrades to a plain 403.
	_, hs2 := newTestServer(t, filter, Config{})
	resp, err = noRedirect.Post(hs2.URL+"/v1/add", "application/octet-stream",
		strings.NewReader("new-key"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower add without primary: HTTP %d, want 403", resp.StatusCode)
	}
}

// TestSwapFilter pins the resync cutover: a same-backend swap serves
// the new filter immediately, nil and backend-mismatched swaps are
// rejected without touching the served filter.
func TestSwapFilter(t *testing.T) {
	filter, data := newTestFilter(t, 200)
	srv, hs := newTestServer(t, filter, Config{})

	if _, err := srv.SwapFilter(nil); err == nil {
		t.Fatal("SwapFilter accepted nil")
	}

	other, err := habf.NewSharded(data.Positives, nil, 2000,
		habf.WithShards(4), habf.WithBackend("bloom"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SwapFilter(other); err == nil {
		t.Fatal("SwapFilter accepted a backend mismatch")
	}
	if srv.Filter() != filter {
		t.Fatal("rejected swap replaced the served filter")
	}

	next, _ := newTestFilter(t, 200)
	next.Add([]byte("only-in-next"))
	prev, err := srv.SwapFilter(next)
	if err != nil {
		t.Fatalf("SwapFilter: %v", err)
	}
	if prev != filter {
		t.Fatal("SwapFilter did not return the previous filter")
	}
	if !containsJSON(t, hs.URL, []byte("only-in-next")) {
		t.Fatal("server did not serve the swapped-in filter")
	}
}
