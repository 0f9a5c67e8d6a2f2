// Command habfserved serves a sharded HABF over HTTP.
//
// The daemon answers membership queries (/v1/contains, coalesced into
// micro-batches under concurrency), batch queries (/v1/contains_batch),
// inserts (/v1/add), operational stats (/v1/stats), crash-safe
// checkpoints (/v1/snapshot) and Prometheus metrics (/metrics). The
// coalescer has one fixed policy and no flags: drain-only, batches of
// at most 256 keys, 2 dispatchers.
//
// With -listen-binary it additionally serves the internal/wire binary
// protocol on a raw TCP listener: length-prefixed frames over one
// pipelined connection, dispatching into the same filter, coalescer and
// metrics as HTTP but without per-request HTTP framing cost. Both
// listeners drain gracefully on SIGINT/SIGTERM.
//
// Usage:
//
//	habfserved -restore filter.snap [-addr :8080] [-snapshot filter.snap -snapshot-on-exit]
//	habfserved -keys 100000 [-shards 8] [-seed 1]       # synthetic filter, for demos/load tests
//	habfserved -keys 100000 -backend xor                # serve another filter family (bloom|xor|wbf|phbf|lbf|slbf|adabf)
//	habfserved -follow http://primary:8080              # replication follower: pull, serve, resync
//
// The filter comes from one of three sources: -restore loads a full
// snapshot produced by habf.SaveFile or POST /v1/snapshot (zero-copy,
// query-ready in milliseconds, and it rebuilds shards on drift from the
// keys the snapshot carries; a filter-only file, such as a follower's
// GET /v1/snapshot download, is refused), a
// synthetic -keys filter is built at startup from the deterministic
// YCSB-style key generator (the same keys `habfbench -net` probes with),
// or -follow bootstraps from a running primary's GET /v1/snapshot.
//
// A -follow daemon is a read-only replica: it restores the primary's
// snapshot, serves reads over both HTTP and the binary protocol, polls
// the primary's mutation epoch (GET /v1/epoch, cadence -follow-poll) and
// re-syncs — with exponential backoff and jitter — whenever it advances.
// Writes are rejected with a 307 redirect to the primary. If the primary
// dies the follower keeps answering from its last restored snapshot and
// keeps retrying until the primary returns. Replication state is
// exported at /metrics (habfserved_replication_*) and in /v1/stats.
//
// -backend selects the filter family (habf, bloom, xor, wbf, phbf, or
// the learned families lbf, slbf, adabf) a synthetic filter is built
// with; restores auto-detect the family from the snapshot header, and
// an explicit -backend that contradicts the file is a startup error
// rather than a misdecode. The active backend is reported in /v1/stats
// and /metrics. Learned backends train their model at build time, so a
// synthetic -keys startup takes seconds rather than milliseconds;
// restores skip training entirely.
//
// -tune sets the backend's tuning knobs ("k=v,k=v", validated against
// the family's schema — see the README's Tuning section). A synthetic
// filter is built with them; on -restore the snapshot's durable knobs
// win, and a -tune that contradicts them (or names an unknown knob) is
// a startup error. The effective tuning is reported in /v1/stats.
//
// Shutdown is graceful: on SIGINT/SIGTERM the listener stops accepting,
// in-flight requests and coalesced batches drain, and with
// -snapshot-on-exit a final checkpoint is written to the -snapshot path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	habf "repro"
	"repro/internal/dataset"
	"repro/internal/replica"
	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		addrBin  = flag.String("listen-binary", "", "also serve the internal/wire binary protocol on this TCP address (e.g. :8081)")
		restore  = flag.String("restore", "", "restore the filter from this snapshot at startup")
		keys     = flag.Int("keys", 0, "build a synthetic filter with this many keys per side (when not restoring)")
		backend  = flag.String("backend", "", "filter backend: "+strings.Join(habf.Backends(), "|")+" (default habf; restores auto-detect and must match when set)")
		tune     = flag.String("tune", "", "backend tuning knobs, k=v,k=v (restores carry their own and must match when set)")
		shards   = flag.Int("shards", 8, "shard count for a synthetic filter (rounded up to a power of two)")
		seed     = flag.Int64("seed", 1, "seed for the synthetic filter's keys and construction")
		bits     = flag.Float64("bits", 10, "bits per key for a synthetic filter")
		snapPath = flag.String("snapshot", "", "default target for /v1/snapshot and -snapshot-on-exit")
		snapExit = flag.Bool("snapshot-on-exit", false, "write a final snapshot to -snapshot during graceful shutdown")

		follow     = flag.String("follow", "", "run as a read-only follower of this primary (base URL or host:port); exclusive with -restore/-keys")
		followPoll = flag.Duration("follow-poll", time.Second, "how often a follower polls the primary's epoch")

		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); keeps the debug surface off the serving port")
		profileRate = flag.Int("profile-rate", 0, "mutex profile fraction and block profile rate (runtime.SetMutexProfileFraction / SetBlockProfileRate); 0 leaves both off")

		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain budget")
	)
	flag.Parse()
	if err := run(config{
		addr: *addr, addrBin: *addrBin, restore: *restore, keys: *keys, backend: *backend, tune: *tune, shards: *shards,
		seed: *seed, bits: *bits, snapPath: *snapPath, snapExit: *snapExit,
		follow: *follow, followPoll: *followPoll,
		pprofAddr: *pprofAddr, profileRate: *profileRate,
		drainTimeout: *drainTimeout,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "habfserved:", err)
		os.Exit(1)
	}
}

type config struct {
	addr         string
	addrBin      string
	restore      string
	keys         int
	backend      string
	tune         string
	shards       int
	seed         int64
	bits         float64
	snapPath     string
	snapExit     bool
	follow       string
	followPoll   time.Duration
	pprofAddr    string
	profileRate  int
	drainTimeout time.Duration
}

// buildFilter realizes the daemon's filter from the configured source.
func buildFilter(cfg config) (*habf.Sharded, error) {
	if cfg.restore != "" {
		start := time.Now()
		f, err := habf.LoadFile(cfg.restore)
		if err != nil {
			return nil, fmt.Errorf("restore %s: %w", cfg.restore, err)
		}
		if f.Stats().ReadOnly {
			return nil, fmt.Errorf("restore %s: filter-only snapshot (a GET /v1/snapshot download, or a file written before snapshots carried keys) holds no keys to serve writes from; rebuild from the source keys", cfg.restore)
		}
		// Load dispatches by the backend recorded in the snapshot header;
		// an explicit -backend that contradicts the file is an operator
		// error worth failing on, not silently serving the wrong family.
		if cfg.backend != "" && f.Backend() != cfg.backend {
			return nil, fmt.Errorf("restore %s: snapshot holds a %q filter, but -backend %q was requested",
				cfg.restore, f.Backend(), cfg.backend)
		}
		// The snapshot's tuning knobs are durable; like -backend, a -tune
		// that contradicts them (or fails the schema) is an operator error
		// worth failing on, not a config the restore can honor.
		if cfg.tune != "" {
			want, err := habf.ParseTuning(f.Backend(), cfg.tune)
			if err != nil {
				return nil, fmt.Errorf("restore %s: -tune: %w", cfg.restore, err)
			}
			if got := f.Tuning(); got != want {
				return nil, fmt.Errorf("restore %s: snapshot tuning %q does not match -tune (%q)",
					cfg.restore, got, want)
			}
		}
		st := f.Stats()
		fmt.Fprintf(os.Stderr, "habfserved: restored %s in %v (%d shards, backend %s, %.1f KiB)\n",
			cfg.restore, time.Since(start).Round(time.Millisecond), st.Shards, f.Backend(), float64(st.SizeBits)/8/1024)
		return f, nil
	}
	if cfg.keys <= 0 {
		return nil, errors.New("no filter source: pass -restore or -keys")
	}
	start := time.Now()
	data := dataset.YCSB(cfg.keys, cfg.keys, cfg.seed)
	costs := dataset.ZipfCosts(cfg.keys, 1.1, cfg.seed)
	negatives := make([]habf.WeightedKey, cfg.keys)
	for i := range negatives {
		negatives[i] = habf.WeightedKey{Key: data.Negatives[i], Cost: costs[i]}
	}
	f, err := habf.NewSharded(data.Positives, negatives, uint64(cfg.bits*float64(cfg.keys)),
		habf.WithShards(cfg.shards), habf.WithBackend(cfg.backend), habf.WithTuning(cfg.tune),
		habf.WithShardFilterOptions(habf.WithSeed(cfg.seed)))
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	fmt.Fprintf(os.Stderr, "habfserved: built synthetic %s filter over %d keys in %v (%d shards)\n",
		f.Backend(), cfg.keys, time.Since(start).Round(time.Millisecond), f.NumShards())
	return f, nil
}

// bootstrapFollower builds a replication follower against cfg.follow,
// blocks (with backoff) until the first snapshot pull succeeds, and
// returns the follower plus the restored filter. Swaps after the
// server exists go through srvp.
func bootstrapFollower(ctx context.Context, cfg config, srvp *atomic.Pointer[server.Server]) (*replica.Follower, *habf.Sharded, error) {
	// Until the server exists, OnSwap parks the restored filter here;
	// afterwards every resync is an atomic SwapFilter on the server.
	var boot atomic.Pointer[habf.Sharded]
	fol, err := replica.New(replica.Config{
		Primary:      cfg.follow,
		PollInterval: cfg.followPoll,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "habfserved: "+format+"\n", args...)
		},
		OnSwap: func(f *habf.Sharded, epoch uint64) error {
			if s := srvp.Load(); s != nil {
				_, err := s.SwapFilter(f)
				return err
			}
			boot.Store(f)
			return nil
		},
	})
	if err != nil {
		return nil, nil, err
	}
	backoff := 500 * time.Millisecond
	for {
		if err := fol.Sync(ctx); err == nil {
			break
		} else {
			fmt.Fprintf(os.Stderr, "habfserved: bootstrap: %v (retrying in %v)\n", err, backoff)
		}
		select {
		case <-ctx.Done():
			return nil, nil, fmt.Errorf("follower bootstrap interrupted: %w", ctx.Err())
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 10*time.Second {
			backoff = 10 * time.Second
		}
	}
	f := boot.Load()
	st := f.Stats()
	fmt.Fprintf(os.Stderr, "habfserved: following %s (epoch %d, backend %s, %d shards, %.1f KiB)\n",
		fol.Primary(), fol.Stats().SyncedEpoch, f.Backend(), st.Shards, float64(st.SizeBits)/8/1024)
	return fol, f, nil
}

func run(cfg config) error {
	var (
		filter *habf.Sharded
		fol    *replica.Follower
		srvp   atomic.Pointer[server.Server]
		err    error
	)
	// folCtx outlives bootstrap: the same signal that starts the drain
	// also stops the follower's poll loop.
	folCtx, folCancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer folCancel()
	if cfg.follow != "" {
		if cfg.restore != "" || cfg.keys > 0 {
			return errors.New("-follow is exclusive with -restore and -keys: the primary is the filter source")
		}
		fol, filter, err = bootstrapFollower(folCtx, cfg, &srvp)
	} else {
		filter, err = buildFilter(cfg)
	}
	if err != nil {
		return err
	}
	scfg := server.Config{
		Filter:       filter,
		SnapshotPath: cfg.snapPath,
	}
	if fol != nil {
		scfg.Primary = fol.Primary()
	}
	srv, err := server.New(scfg)
	if err != nil {
		return err
	}
	if fol != nil {
		srvp.Store(srv)
		reg := srv.Metrics()
		reg.Gauge("habfserved_replication_lag_epochs",
			"Epochs this follower trails the primary, as of the last successful poll.",
			func() float64 { return float64(fol.Stats().Lag()) })
		reg.Gauge("habfserved_replication_synced_epoch",
			"Primary-reported epoch of the last restored snapshot.",
			func() float64 { return float64(fol.Stats().SyncedEpoch) })
		reg.CounterFunc("habfserved_replication_resyncs_total",
			"Successful snapshot restores, including the bootstrap pull.",
			func() uint64 { return fol.Stats().Resyncs })
		reg.CounterFunc("habfserved_replication_failures_total",
			"Failed epoch polls and snapshot pulls.",
			func() uint64 { return fol.Stats().Failures })
		go fol.Run(folCtx)
	}

	// The profiler rides its own listener so the debug surface never
	// shares a port with production traffic. The contention profiles are
	// opt-in by rate: sampling mutex waits and blocking events costs a
	// little on every contended lock, so both stay off unless asked.
	if cfg.profileRate > 0 {
		runtime.SetMutexProfileFraction(cfg.profileRate)
		runtime.SetBlockProfileRate(cfg.profileRate)
	}
	if cfg.pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Fprintf(os.Stderr, "habfserved: pprof on %s\n", cfg.pprofAddr)
			if err := http.ListenAndServe(cfg.pprofAddr, pmux); err != nil {
				fmt.Fprintf(os.Stderr, "habfserved: pprof: %v\n", err)
			}
		}()
	}

	hs := &http.Server{
		Addr:              cfg.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// errc carries the first serving failure; sized for both listeners so
	// neither send blocks after a signal wins the select.
	errc := make(chan error, 2)
	go func() {
		fmt.Fprintf(os.Stderr, "habfserved: listening on %s\n", cfg.addr)
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	var bs *server.BinaryServer
	if cfg.addrBin != "" {
		ln, err := net.Listen("tcp", cfg.addrBin)
		if err != nil {
			return fmt.Errorf("listen-binary: %w", err)
		}
		bs = server.NewBinaryServer(srv)
		go func() {
			fmt.Fprintf(os.Stderr, "habfserved: binary protocol on %s\n", ln.Addr())
			errc <- bs.Serve(ln)
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		srv.Close()
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "habfserved: %v — draining\n", sig)
	}

	// Graceful shutdown: stop accepting on both listeners, drain in-flight
	// requests, then drain the coalescer and (optionally) checkpoint.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "habfserved: shutdown: %v\n", err)
	}
	if bs != nil {
		if err := bs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "habfserved: binary shutdown: %v\n", err)
		}
	}
	srv.Close()
	filter.WaitRebuilds()
	if cfg.snapExit {
		path, took, err := srv.Snapshot("")
		if err != nil {
			return fmt.Errorf("snapshot-on-exit: %w", err)
		}
		fmt.Fprintf(os.Stderr, "habfserved: final snapshot %s in %v\n", path, took.Round(time.Millisecond))
	}
	// Both serving goroutines report on errc after their shutdown; the
	// first failure (if any) is the exit status.
	listeners := 1
	if bs != nil {
		listeners = 2
	}
	var ret error
	for i := 0; i < listeners; i++ {
		if err := <-errc; err != nil && ret == nil {
			ret = err
		}
	}
	return ret
}
