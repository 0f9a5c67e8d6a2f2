package replica

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	habf "repro"
	"repro/internal/server"
)

// buildFilter constructs a small sharded filter over n keys.
func buildFilter(t *testing.T, n int) (*habf.Sharded, [][]byte) {
	t.Helper()
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
	}
	f, err := habf.NewSharded(keys, nil, 1<<16, habf.WithShards(4))
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	return f, keys
}

// newPrimary serves f through a real server.Server over httptest.
func newPrimary(t *testing.T, f *habf.Sharded) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(server.Config{Filter: f})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// holder is the swap target tests hand to OnSwap.
type holder struct {
	f atomic.Pointer[habf.Sharded]
}

func (h *holder) swap(f *habf.Sharded, epoch uint64) error {
	h.f.Store(f)
	return nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{OnSwap: (&holder{}).swap}); err == nil {
		t.Fatal("New accepted empty primary")
	}
	if _, err := New(Config{Primary: "localhost:1"}); err == nil {
		t.Fatal("New accepted nil OnSwap")
	}
	f, err := New(Config{Primary: "localhost:1", OnSwap: (&holder{}).swap})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if f.base != "http://localhost:1" {
		t.Fatalf("base = %q, want scheme prepended", f.base)
	}
	f2, _ := New(Config{Primary: "https://p:8080/", OnSwap: (&holder{}).swap})
	if f2.base != "https://p:8080" {
		t.Fatalf("base = %q, want trailing slash trimmed", f2.base)
	}
}

// TestFollowerBootstrapAndResync is the end-to-end tentpole check:
// bootstrap from a live primary, then observe an Add on the primary
// bump the epoch and the follower resync to answer the new key with
// zero false negatives.
func TestFollowerBootstrapAndResync(t *testing.T) {
	pf, keys := buildFilter(t, 64)
	_, ts := newPrimary(t, pf)

	var h holder
	fo, err := New(Config{
		Primary:      ts.URL,
		OnSwap:       h.swap,
		PollInterval: 5 * time.Millisecond,
		MinBackoff:   5 * time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	if err := fo.Sync(context.Background()); err != nil {
		t.Fatalf("initial Sync: %v", err)
	}
	restored := h.f.Load()
	if restored == nil {
		t.Fatal("OnSwap never ran")
	}
	for _, k := range keys {
		if !restored.Contains(k) {
			t.Fatalf("restored filter lost key %q (false negative)", k)
		}
	}
	st := fo.Stats()
	if st.Resyncs != 1 {
		t.Fatalf("Resyncs = %d, want 1", st.Resyncs)
	}
	if st.SyncedEpoch != pf.Epoch() {
		t.Fatalf("SyncedEpoch = %d, primary epoch %d", st.SyncedEpoch, pf.Epoch())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); fo.Run(ctx) }()

	newKey := []byte("added-after-bootstrap")
	pf.Add(newKey)
	waitFor(t, 5*time.Second, func() bool {
		f := h.f.Load()
		return f.Contains(newKey) && fo.Stats().SyncedEpoch == fo.Stats().PrimaryEpoch
	}, "follower to resync the added key")
	if got := fo.Stats(); got.Resyncs < 2 {
		t.Fatalf("Resyncs = %d after epoch bump, want >= 2", got.Resyncs)
	}
	if lag := fo.Stats().Lag(); lag != 0 {
		t.Fatalf("Lag = %d after resync, want 0", lag)
	}
	cancel()
	<-done
}

// TestFollowerSurvivesPrimaryDeathMidPull cuts the snapshot stream
// halfway: the truncated container must fail restore (not install a
// half filter), the follower must keep its previous filter, and the
// next intact pull must succeed.
func TestFollowerSurvivesPrimaryDeathMidPull(t *testing.T) {
	pf, keys := buildFilter(t, 64)
	var snap bytes.Buffer
	if err := pf.Save(&snap); err != nil {
		t.Fatalf("Save: %v", err)
	}
	epoch := pf.Epoch()

	var failPulls atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/epoch":
			fmt.Fprintf(w, "%d", epoch)
		case "/v1/snapshot":
			w.Header().Set("X-Habf-Epoch", strconv.FormatUint(epoch, 10))
			if failPulls.Load() {
				w.Write(snap.Bytes()[:snap.Len()/2])
				conn, _, err := w.(http.Hijacker).Hijack()
				if err == nil {
					conn.Close() // die mid-body, like a crashing primary
				}
				return
			}
			w.Write(snap.Bytes())
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	var h holder
	fo, err := New(Config{Primary: ts.URL, OnSwap: h.swap})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	failPulls.Store(true)
	if err := fo.Sync(context.Background()); err == nil {
		t.Fatal("Sync of a truncated snapshot succeeded")
	}
	if h.f.Load() != nil {
		t.Fatal("truncated snapshot was swapped in")
	}
	if st := fo.Stats(); st.Failures != 1 || st.Resyncs != 0 {
		t.Fatalf("after failed pull: %+v, want Failures=1 Resyncs=0", st)
	}

	failPulls.Store(false)
	if err := fo.Sync(context.Background()); err != nil {
		t.Fatalf("retry Sync: %v", err)
	}
	restored := h.f.Load()
	if restored == nil {
		t.Fatal("retry did not swap a filter in")
	}
	for _, k := range keys {
		if !restored.Contains(k) {
			t.Fatalf("restored filter lost key %q", k)
		}
	}
	if st := fo.Stats(); st.SyncedEpoch != epoch {
		t.Fatalf("SyncedEpoch = %d, want %d", st.SyncedEpoch, epoch)
	}
}

// TestFollowerKeepsServingWhenPrimaryDies kills the primary after the
// bootstrap sync: the follower's filter must stay installed at the last
// synced epoch while the poll loop fails in the background.
func TestFollowerKeepsServingWhenPrimaryDies(t *testing.T) {
	pf, keys := buildFilter(t, 64)
	srv, err := server.New(server.Config{Filter: pf})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())

	var h holder
	fo, err := New(Config{
		Primary:      ts.URL,
		OnSwap:       h.swap,
		PollInterval: 5 * time.Millisecond,
		MinBackoff:   5 * time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := fo.Sync(context.Background()); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	syncedAt := fo.Stats().SyncedEpoch
	restored := h.f.Load()

	ts.Close() // primary dies

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); fo.Run(ctx) }()

	waitFor(t, 5*time.Second, func() bool { return fo.Stats().Failures >= 2 },
		"poll failures to accumulate")
	cancel()
	<-done

	st := fo.Stats()
	if st.Resyncs != 1 || st.SyncedEpoch != syncedAt {
		t.Fatalf("follower moved off its last sync: %+v", st)
	}
	if h.f.Load() != restored {
		t.Fatal("filter was swapped while the primary was down")
	}
	for _, k := range keys {
		if !restored.Contains(k) {
			t.Fatalf("follower lost key %q while primary was down", k)
		}
	}
}

// TestEpochAdvancesDuringResync serves a snapshot that is already stale
// by the time it finishes downloading (its X-Habf-Epoch header is one
// behind the epoch endpoint). The follower must record the header's
// conservative stamp and immediately pull again rather than declaring
// itself up to date.
func TestEpochAdvancesDuringResync(t *testing.T) {
	pf, _ := buildFilter(t, 64)
	var snapOld bytes.Buffer
	if err := pf.Save(&snapOld); err != nil {
		t.Fatalf("Save: %v", err)
	}
	oldEpoch := pf.Epoch()
	newKey := []byte("landed-mid-pull")
	pf.Add(newKey)
	var snapNew bytes.Buffer
	if err := pf.Save(&snapNew); err != nil {
		t.Fatalf("Save: %v", err)
	}
	newEpoch := pf.Epoch()
	if newEpoch <= oldEpoch {
		t.Fatalf("Add did not advance the epoch: %d -> %d", oldEpoch, newEpoch)
	}

	var pulls atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/epoch":
			fmt.Fprintf(w, "%d", newEpoch) // the primary has already moved on
		case "/v1/snapshot":
			if pulls.Add(1) == 1 {
				// First pull: the write landed mid-stream, so the header
				// carries the pre-write epoch and the body the old state.
				w.Header().Set("X-Habf-Epoch", strconv.FormatUint(oldEpoch, 10))
				w.Write(snapOld.Bytes())
				return
			}
			w.Header().Set("X-Habf-Epoch", strconv.FormatUint(newEpoch, 10))
			w.Write(snapNew.Bytes())
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	var h holder
	fo, err := New(Config{
		Primary:      ts.URL,
		OnSwap:       h.swap,
		PollInterval: 5 * time.Millisecond,
		MinBackoff:   5 * time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); fo.Run(ctx) }()

	waitFor(t, 5*time.Second, func() bool {
		return fo.Stats().SyncedEpoch == newEpoch
	}, "follower to chase the mid-pull epoch advance")
	cancel()
	<-done

	if got := pulls.Load(); got < 2 {
		t.Fatalf("pulls = %d, want >= 2 (stale snapshot must trigger a second pull)", got)
	}
	if f := h.f.Load(); !f.Contains(newKey) {
		t.Fatal("follower never caught the key added mid-pull (false negative)")
	}
	if st := fo.Stats(); st.Resyncs != 2 {
		t.Fatalf("Resyncs = %d, want 2", st.Resyncs)
	}
}

// TestFollowerRejectsSwapError keeps the synced epoch untouched when
// the owner's swap callback refuses the filter.
func TestFollowerRejectsSwapError(t *testing.T) {
	pf, _ := buildFilter(t, 16)
	_, ts := newPrimary(t, pf)
	fo, err := New(Config{
		Primary: ts.URL,
		OnSwap:  func(*habf.Sharded, uint64) error { return fmt.Errorf("backend mismatch") },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := fo.Sync(context.Background()); err == nil {
		t.Fatal("Sync succeeded despite the swap being rejected")
	}
	if st := fo.Stats(); st.Resyncs != 0 || st.SyncedEpoch != 0 || st.Failures != 1 {
		t.Fatalf("stats after rejected swap: %+v", st)
	}
}

func TestBackoffHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		d := jitter(rng, 100*time.Millisecond)
		if d < 50*time.Millisecond || d >= 100*time.Millisecond {
			t.Fatalf("jitter(100ms) = %v, want [50ms, 100ms)", d)
		}
	}
	if got := nextBackoff(100*time.Millisecond, time.Second); got != 200*time.Millisecond {
		t.Fatalf("nextBackoff doubled to %v", got)
	}
	if got := nextBackoff(800*time.Millisecond, time.Second); got != time.Second {
		t.Fatalf("nextBackoff cap: got %v, want 1s", got)
	}
	if got := (Stats{SyncedEpoch: 7, PrimaryEpoch: 5}).Lag(); got != 0 {
		t.Fatalf("Lag saturation: got %d, want 0", got)
	}
	if got := (Stats{SyncedEpoch: 5, PrimaryEpoch: 9}).Lag(); got != 4 {
		t.Fatalf("Lag: got %d, want 4", got)
	}
}
