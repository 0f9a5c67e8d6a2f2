package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// startBinary serves srv's binary protocol on a loopback listener and
// tears it down (with a bounded drain) at test end.
func startBinary(t testing.TB, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBinaryServer(srv)
	done := make(chan error, 1)
	go func() { done <- bs.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := bs.Shutdown(ctx); err != nil {
			t.Errorf("binary shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("binary serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestBinaryEndpointsAgree pins the binary protocol's core contract:
// contains, contains_batch and add all answer exactly like the
// in-process filter, on one pipelined connection.
func TestBinaryEndpointsAgree(t *testing.T) {
	filter, data := newTestFilter(t, 2000)
	srv, err := New(Config{Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	addr := startBinary(t, srv)

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	probes := make([][]byte, 0, 400)
	probes = append(probes, data.Positives[:200]...)
	probes = append(probes, data.Negatives[:200]...)
	want := filter.ContainsBatch(probes)

	for i, key := range probes {
		got, err := c.Contains(key)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("probe %d: binary contains %v, direct %v", i, got, want[i])
		}
	}
	batch, err := c.ContainsBatch(probes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range probes {
		if batch[i] != want[i] {
			t.Fatalf("probe %d: binary batch %v, direct %v", i, batch[i], want[i])
		}
	}

	fresh := []byte("binary-added-key")
	if err := c.Add(fresh); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Contains(fresh); err != nil || !got {
		t.Fatalf("added key denied (present=%v err=%v)", got, err)
	}
	if !filter.Contains(fresh) {
		t.Fatal("binary add not visible to the in-process filter")
	}
}

// TestBinaryAddCopiesKey pins that the server copies Add keys out of
// the decoder scratch: two adds reusing one client buffer must land as
// two distinct keys, not the second overwriting the first.
func TestBinaryAddCopiesKey(t *testing.T) {
	filter, _ := newTestFilter(t, 300)
	srv, err := New(Config{Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	addr := startBinary(t, srv)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	buf := []byte("scratch-key-A")
	if err := c.Add(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, []byte("scratch-key-B"))
	if err := c.Add(buf); err != nil {
		t.Fatal(err)
	}
	filter.WaitRebuilds()
	for _, key := range []string{"scratch-key-A", "scratch-key-B"} {
		if !filter.Contains([]byte(key)) {
			t.Fatalf("add %q lost after buffer reuse", key)
		}
	}
}

// TestBinaryRejectsHostileInput drives raw conns at the listener: a bad
// handshake is dropped silently; hostile frames after a good handshake
// get an error frame and a closed connection — never a truncated-key
// answer.
func TestBinaryRejectsHostileInput(t *testing.T) {
	filter, _ := newTestFilter(t, 300)
	srv, err := New(Config{Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	addr := startBinary(t, srv)

	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn
	}

	t.Run("bad-handshake", func(t *testing.T) {
		conn := dial()
		defer conn.Close()
		conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
		if n, _ := conn.Read(make([]byte, 64)); n != 0 {
			t.Fatalf("got %d response bytes to a non-wire client", n)
		}
	})

	// Each hostile frame must produce a StatusError response and then EOF.
	hostile := map[string][]byte{
		"bad-op":       {0x7f, 0x01},
		"retired-op-5": {5, 0x01},
		"empty-key":    append([]byte{byte(wire.OpContains), 1}, 0),
		"huge-key-len": append([]byte{byte(wire.OpContains), 1},
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
	}
	for name, frame := range hostile {
		t.Run(name, func(t *testing.T) {
			conn := dial()
			defer conn.Close()
			conn.Write(wire.Handshake[:])
			conn.Write(frame)
			resp, err := io.ReadAll(conn)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp) < 3 {
				t.Fatalf("short error response: % x", resp)
			}
			// op(1) id(uvarint=1 byte here) status(1)
			if resp[2] != wire.StatusError {
				t.Fatalf("status %d, want StatusError; full response % x", resp[2], resp)
			}
		})
	}
}

// TestBinaryOversizedKeyRejected is the wire-protocol face of the HTTP
// 413 regression test: a key over MaxKeyLen must be rejected as a
// protocol error, never truncated and answered as a different key.
func TestBinaryOversizedKeyRejected(t *testing.T) {
	filter, _ := newTestFilter(t, 300)
	srv, err := New(Config{Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	addr := startBinary(t, srv)

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))
	// The server rejects on the length prefix alone; depending on timing
	// the client sees the error frame or a write failure mid-key, but
	// never an answer.
	huge := make([]byte, wire.MaxKeyLen+1)
	if _, err := c.Contains(huge); err == nil {
		t.Fatal("oversized key was answered")
	}
	// The server must have cut the connection, not resynced mid-key.
	if err := c.Ping(); err == nil {
		t.Fatal("connection survived an oversized key")
	}
}

// TestBatchKeyCapParity pins that both request paths agree on what an
// oversized batch is: one key over wire.MaxBatchKeys is refused over
// HTTP (413, counted as a request error, no filter call) and over the
// binary protocol, and a batch of exactly wire.MaxBatchKeys keys is
// answered by both, identically.
func TestBatchKeyCapParity(t *testing.T) {
	filter, _ := newTestFilter(t, 300)
	srv, hs := newTestServer(t, filter, Config{})
	addr := startBinary(t, srv)

	keys := make([][]byte, wire.MaxBatchKeys+1)
	for i := range keys {
		keys[i] = []byte{byte(i)}
	}

	errsBefore := srv.mErrors.Value()
	resp, body := postJSON(t, hs.URL+"/v1/contains_batch", map[string]any{"keys": keys})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("HTTP batch of %d keys: HTTP %d, want 413", len(keys), resp.StatusCode)
	}
	if got := srv.mErrors.Value() - errsBefore; got != 1 {
		t.Fatalf("refused HTTP batch counted %d request errors, want 1", got)
	}
	if srv.mBatchKeys.Value() != 0 {
		t.Fatalf("refused HTTP batch reached the filter: %s", body)
	}
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := c.ContainsBatch(keys); err == nil {
		t.Fatalf("binary batch of %d keys was answered", len(keys))
	}
	c.Close()

	keys = keys[:wire.MaxBatchKeys]
	want := filter.ContainsBatch(keys)
	resp, body = postJSON(t, hs.URL+"/v1/contains_batch", map[string]any{"keys": keys})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP batch of %d keys: HTTP %d: %s", len(keys), resp.StatusCode, body)
	}
	var out struct {
		Present []bool `json:"present"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	c, err = wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))
	got, err := c.ContainsBatch(keys)
	if err != nil {
		t.Fatalf("binary batch of %d keys: %v", len(keys), err)
	}
	if len(out.Present) != len(keys) || len(got) != len(keys) {
		t.Fatalf("%d keys: HTTP answered %d, binary %d", len(keys), len(out.Present), len(got))
	}
	for i := range keys {
		if out.Present[i] != want[i] || got[i] != want[i] {
			t.Fatalf("key %d: HTTP %v, binary %v, direct %v", i, out.Present[i], got[i], want[i])
		}
	}
}

// TestBinaryPipelining writes several frames before reading anything:
// responses must come back complete, in order, with matching ids.
func TestBinaryPipelining(t *testing.T) {
	filter, data := newTestFilter(t, 1000)
	srv, err := New(Config{Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	addr := startBinary(t, srv)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	const n = 64
	out := append([]byte{}, wire.Handshake[:]...)
	for i := 0; i < n; i++ {
		out = wire.AppendContains(out, uint64(i+1), data.Positives[i])
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	// Each response is op(1) id(uvarint, 1 byte for ids < 128) status(1)
	// present(1) — 4 bytes.
	resp := make([]byte, 0, 4*n)
	buf := make([]byte, 1024)
	for len(resp) < 4*n {
		nr, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("after %d response bytes: %v", len(resp), err)
		}
		resp = append(resp, buf[:nr]...)
	}
	r := bytes.NewReader(resp)
	for i := 0; i < n; i++ {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			t.Fatal(err)
		}
		if hdr[0] != byte(wire.OpContains) || hdr[1] != byte(i+1) || hdr[2] != wire.StatusOK || hdr[3] != '1' {
			t.Fatalf("response %d: % x", i, hdr)
		}
	}
}

// TestBinaryConcurrentClients hammers the binary listener from many
// connections while writers add keys — the -race check that the binary
// path shares the HTTP path's no-external-locking guarantees.
func TestBinaryConcurrentClients(t *testing.T) {
	filter, data := newTestFilter(t, 2000)
	srv, err := New(Config{Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	addr := startBinary(t, srv)

	const (
		readers = 6
		writers = 3
		perG    = 200
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers+writers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for i := 0; i < perG; i++ {
				key := data.Positives[(r*perG+i)%len(data.Positives)]
				present, err := c.Contains(key)
				if err != nil {
					errc <- err
					return
				}
				if !present {
					errc <- fmt.Errorf("reader %d: member denied", r)
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for i := 0; i < perG; i++ {
				if err := c.Add([]byte(fmt.Sprintf("bin-hammer-%d-%06d", w, i))); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	filter.WaitRebuilds()
	for w := 0; w < writers; w++ {
		for i := 0; i < perG; i += 41 {
			key := fmt.Sprintf("bin-hammer-%d-%06d", w, i)
			if !filter.Contains([]byte(key)) {
				t.Fatalf("acked binary add %q lost", key)
			}
		}
	}
}

// TestBinaryShutdownDrains pins graceful drain: requests in flight at
// Shutdown are answered, the listener stops accepting, and Shutdown
// returns once connections wind down.
func TestBinaryShutdownDrains(t *testing.T) {
	filter, data := newTestFilter(t, 500)
	srv, err := New(Config{Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBinaryServer(srv)
	done := make(chan error, 1)
	go func() { done <- bs.Serve(ln) }()

	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if present, err := c.Contains(data.Positives[0]); err != nil || !present {
		t.Fatalf("pre-drain contains: present=%v err=%v", present, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := bs.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v after shutdown", err)
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
	if err := c.Ping(); err == nil {
		t.Fatal("idle connection survived drain")
	}
}

// TestBinaryMetrics checks the binary path shows up in /metrics with
// its own per-op counters, latency histogram and connection gauge, and
// that its batches feed the batch key counter HTTP batches feed.
func TestBinaryMetrics(t *testing.T) {
	filter, data := newTestFilter(t, 500)
	srv, err := New(Config{Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	addr := startBinary(t, srv)

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if _, err := c.Contains(data.Positives[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.ContainsBatch(data.Positives[:32]); err != nil {
		t.Fatal(err)
	}
	if err := c.Add([]byte("metrics-key")); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	resp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`habfserved_requests_total{endpoint="binary_contains"} 10`,
		`habfserved_requests_total{endpoint="binary_contains_batch"} 1`,
		`habfserved_requests_total{endpoint="binary_add"} 1`,
		`habfserved_requests_total{endpoint="binary_ping"} 1`,
		"habfserved_batch_keys_total 32",
		"habfserved_batch_size_keys_count 1",
		"habfserved_binary_contains_duration_seconds_count 10",
		"habfserved_binary_batch_duration_seconds_count 1",
		"habfserved_binary_connections 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
}
