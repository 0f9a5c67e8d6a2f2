package router

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
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
		keys[i] = []byte(fmt.Sprintf("key-%05d", i))
	}
	f, err := habf.NewSharded(keys, nil, 1<<16, habf.WithShards(4))
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	return f, keys
}

// startReplica serves f's binary protocol on ln (or a fresh ephemeral
// listener when ln is nil) and returns the address plus a stopper.
func startReplica(t *testing.T, f *habf.Sharded, ln net.Listener) (string, func()) {
	t.Helper()
	srv, err := server.New(server.Config{Filter: f})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if ln == nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
	}
	bs := server.NewBinaryServer(srv)
	go bs.Serve(ln)
	var once atomic.Bool
	stop := func() {
		if !once.CompareAndSwap(false, true) {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		bs.Shutdown(ctx)
		cancel()
		srv.Close()
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// slowProxy forwards TCP to backend, delaying every response byte
// stream by delay — an artificially slow replica for hedge tests.
func slowProxy(t *testing.T, backend string, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				up, err := net.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer up.Close()
				go io.Copy(up, conn)
				time.Sleep(delay)
				io.Copy(conn, up)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

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
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted zero replicas")
	}
	if _, err := New(Config{Replicas: []string{"a:1", "a:1"}}); err == nil {
		t.Fatal("New accepted duplicate replicas")
	}
}

// TestRouterBatchAcrossReplicas fans one large batch over three
// replicas and checks the routed answers match the filter's own.
func TestRouterBatchAcrossReplicas(t *testing.T) {
	f, keys := buildFilter(t, 256)
	var addrs []string
	for i := 0; i < 3; i++ {
		addr, _ := startReplica(t, f, nil)
		addrs = append(addrs, addr)
	}
	r, err := New(Config{Replicas: addrs, MinChunk: 32})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()

	// Half known keys, half probes the filter may or may not report.
	query := make([][]byte, 0, 300)
	query = append(query, keys[:150]...)
	for i := 0; i < 150; i++ {
		query = append(query, []byte(fmt.Sprintf("absent-%05d", i)))
	}
	want := f.ContainsBatch(query)
	got, err := r.ContainsBatch(query)
	if err != nil {
		t.Fatalf("ContainsBatch: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key %d: routed %v, local %v", i, got[i], want[i])
		}
	}
	st := r.Stats()
	if st.Batches != 1 || st.Keys != 300 || st.Healthy != 3 {
		t.Fatalf("stats: %+v", st)
	}

	ok, err := r.Contains(keys[0])
	if err != nil || !ok {
		t.Fatalf("Contains(known key) = %v, %v", ok, err)
	}
}

// TestRouterHedgesSlowReplica puts a high-latency replica first in the
// rotation: the hedge timer must fire, the fast replica must win, and
// the answers must stay correct.
func TestRouterHedgesSlowReplica(t *testing.T) {
	f, keys := buildFilter(t, 64)
	fastAddr, _ := startReplica(t, f, nil)
	backendAddr, _ := startReplica(t, f, nil)
	slowAddr := slowProxy(t, backendAddr, 300*time.Millisecond)

	r, err := New(Config{
		Replicas:   []string{slowAddr, fastAddr},
		HedgeAfter: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()

	want := f.ContainsBatch(keys)
	start := time.Now()
	got, err := r.ContainsBatch(keys)
	if err != nil {
		t.Fatalf("ContainsBatch: %v", err)
	}
	took := time.Since(start)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key %d: routed %v, local %v", i, got[i], want[i])
		}
	}
	st := r.Stats()
	if st.Hedges < 1 {
		t.Fatalf("no hedge fired (stats %+v)", st)
	}
	if st.HedgeWins < 1 {
		t.Fatalf("hedge did not win against a 300ms replica (stats %+v, took %v)", st, took)
	}
	if took >= 300*time.Millisecond {
		t.Fatalf("first-arrival-wins failed: call took the slow path (%v)", took)
	}
}

// TestRouterLosingHedgeCannotTearResults pins the private-buffer
// guarantee of the pooled hedge path: after ContainsBatchInto returns,
// the caller owns dst outright — the losing attempt, still in flight
// against the slow replica, finishes into its own pooled buffer and
// must never write into dst, even across several batches recycling
// those buffers.
func TestRouterLosingHedgeCannotTearResults(t *testing.T) {
	f, keys := buildFilter(t, 64)
	fastAddr, _ := startReplica(t, f, nil)
	backendAddr, _ := startReplica(t, f, nil)
	slowAddr := slowProxy(t, backendAddr, 200*time.Millisecond)

	r, err := New(Config{
		Replicas:   []string{slowAddr, fastAddr},
		HedgeAfter: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()

	want := f.ContainsBatch(keys)
	dst := make([]bool, len(keys))
	for round := 0; round < 3; round++ {
		// Poison dst so a stale non-write would be caught too.
		for i := range dst {
			dst[i] = !want[i]
		}
		if err := r.ContainsBatchInto(dst, keys); err != nil {
			t.Fatalf("round %d: ContainsBatchInto: %v", round, err)
		}
		snap := append([]bool(nil), dst...)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("round %d key %d: routed %v, local %v", round, i, dst[i], want[i])
			}
		}
		// Let any losing attempt finish against the 200ms replica, then
		// check it wrote nothing into the caller's slice.
		time.Sleep(250 * time.Millisecond)
		for i := range snap {
			if dst[i] != snap[i] {
				t.Fatalf("round %d: dst[%d] changed after return (losing hedge tore the result)", round, i)
			}
		}
	}
	if st := r.Stats(); st.Hedges < 1 {
		t.Fatalf("no hedge fired (stats %+v)", st)
	}
}

// TestRouterLosingAttemptLeavesCallerKeys: once ContainsBatchInto
// returns, the caller may reuse its key slices. A hedge fired at once
// races the primary on every batch, so some attempt keeps running after
// the other won; it must never read the caller's keys again. The caller
// rewrites every key and slice header right after each return, which
// the race detector reports if a losing attempt still reads them.
func TestRouterLosingAttemptLeavesCallerKeys(t *testing.T) {
	f, keys := buildFilter(t, 64)
	addrA, _ := startReplica(t, f, nil)
	addrB, _ := startReplica(t, f, nil)
	r, err := New(Config{Replicas: []string{addrA, addrB}, HedgeAfter: time.Nanosecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()

	want := f.ContainsBatch(keys)
	batch := make([][]byte, len(keys))
	bufs := make([][]byte, len(keys))
	for i := range bufs {
		bufs[i] = make([]byte, 0, 16)
	}
	dst := make([]bool, len(keys))
	for round := 0; round < 200; round++ {
		for i, key := range keys {
			bufs[i] = append(bufs[i][:0], key...)
			batch[i] = bufs[i]
		}
		if err := r.ContainsBatchInto(dst, batch); err != nil {
			t.Fatalf("round %d: ContainsBatchInto: %v", round, err)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("round %d key %d: routed %v, local %v", round, i, dst[i], want[i])
			}
		}
		for i := range batch {
			bufs[i] = append(bufs[i][:0], "scribbled"...)
			batch[i] = nil
		}
	}
	if st := r.Stats(); st.Hedges == 0 {
		t.Fatalf("no hedge fired (stats %+v)", st)
	}
}

// TestRouterEjectsDeadReplicaAndReprobes kills one of two replicas,
// checks the router keeps answering after ejecting it, then restarts
// the replica on the same address and waits for the health loop to
// restore it.
func TestRouterEjectsDeadReplicaAndReprobes(t *testing.T) {
	f, keys := buildFilter(t, 64)
	aliveAddr, _ := startReplica(t, f, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	deadAddr, stopDead := startReplica(t, f, ln)

	r, err := New(Config{
		Replicas:        []string{deadAddr, aliveAddr},
		HedgeAfter:      20 * time.Millisecond,
		RequestTimeout:  200 * time.Millisecond,
		ReprobeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()

	stopDead() // replica one is gone before the first request

	want := f.ContainsBatch(keys)
	for i := 0; i < 3; i++ {
		got, err := r.ContainsBatch(keys)
		if err != nil {
			t.Fatalf("ContainsBatch with one dead replica: %v", err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("call %d key %d: routed %v, local %v", i, j, got[j], want[j])
			}
		}
	}
	waitFor(t, 2*time.Second, func() bool { return r.Stats().Healthy == 1 },
		"dead replica to be ejected")
	if st := r.Stats(); st.Ejections < 1 {
		t.Fatalf("stats after death: %+v", st)
	}

	// Resurrect on the same address and let the health loop find it.
	ln2, err := net.Listen("tcp", deadAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", deadAddr, err)
	}
	startReplica(t, f, ln2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()
	waitFor(t, 5*time.Second, func() bool { return r.Stats().Healthy == 2 },
		"restarted replica to be reprobed back in")
	if st := r.Stats(); st.Reprobes < 1 {
		t.Fatalf("stats after reprobe: %+v", st)
	}
	cancel()
	<-done
}

// TestRouterAllDead returns ErrNoReplicas once the only replica fails.
func TestRouterAllDead(t *testing.T) {
	f, keys := buildFilter(t, 16)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr, stop := startReplica(t, f, ln)
	stop()
	r, err := New(Config{Replicas: []string{addr}, RequestTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()
	if _, err := r.ContainsBatch(keys); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("error = %v, want ErrNoReplicas", err)
	}
	if _, err := r.ContainsBatch(keys); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("second call error = %v, want ErrNoReplicas", err)
	}
}

// TestRouterStaleEpochFence serves two filters whose epochs diverge:
// the health loop must eject the stale replica and restore it once its
// epoch catches back up.
func TestRouterStaleEpochFence(t *testing.T) {
	fFresh, _ := buildFilter(t, 64)
	fStale, _ := buildFilter(t, 64)
	for i := 0; i < 8; i++ {
		fFresh.Add([]byte(fmt.Sprintf("extra-%d", i))) // bump fresh epoch ahead
	}
	if fFresh.Epoch() <= fStale.Epoch() {
		t.Fatalf("epochs did not diverge: fresh %d stale %d", fFresh.Epoch(), fStale.Epoch())
	}
	freshAddr, _ := startReplica(t, fFresh, nil)
	staleAddr, _ := startReplica(t, fStale, nil)

	r, err := New(Config{
		Replicas:        []string{freshAddr, staleAddr},
		ReprobeInterval: 20 * time.Millisecond,
		StaleEpochSlack: 2,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()

	waitFor(t, 5*time.Second, func() bool {
		st := r.Stats()
		return st.Healthy == 1 && st.StaleEject >= 1
	}, "stale replica to be fenced out")
	if got := r.Healthy(); len(got) != 1 || got[0] != freshAddr {
		t.Fatalf("Healthy() = %v, want only %s", got, freshAddr)
	}

	// Catch the stale filter up; the fence must let it back in.
	for fStale.Epoch()+2 < fFresh.Epoch() {
		fStale.Add([]byte(fmt.Sprintf("catchup-%d", fStale.Epoch())))
	}
	waitFor(t, 5*time.Second, func() bool { return r.Stats().Healthy == 2 },
		"caught-up replica to be restored")
	cancel()
	<-done
}
