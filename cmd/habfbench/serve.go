package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	habf "repro"
	"repro/internal/dataset"
	"repro/internal/workload"
)

// serveConfig drives the serving-layer throughput benchmark (-serve):
// single-filter per-key queries vs sharded per-key vs sharded batches,
// under a configurable key-access distribution, with optional concurrent
// writers exercising the Add path (per-shard locks, no external locking).
type serveConfig struct {
	keys     int
	backend  string // filter backend of the sharded set ("" = habf)
	tune     string // backend tuning knobs, "k=v,k=v" ("" = defaults)
	shards   int
	batch    int
	workers  int
	ops      int
	dist     string
	writers  int
	seed     int64
	snapshot string // save the sharded filter here after building
	restore  string // load the sharded filter from here instead of building
}

func runServe(cfg serveConfig, w io.Writer) error {
	dist, err := workload.Parse(cfg.dist)
	if err != nil {
		return err
	}
	if cfg.keys < 1 || cfg.workers < 1 || cfg.batch < 1 || cfg.ops < 1 {
		return fmt.Errorf("serve: -keys, -workers, -batch and -ops must all be ≥ 1")
	}
	if cfg.writers < 0 {
		return fmt.Errorf("serve: -writers must be ≥ 0")
	}
	data := dataset.YCSB(cfg.keys, cfg.keys, cfg.seed)
	costs := dataset.ZipfCosts(cfg.keys, 1.1, cfg.seed)
	negatives := make([]habf.WeightedKey, cfg.keys)
	for i := range negatives {
		negatives[i] = habf.WeightedKey{Key: data.Negatives[i], Cost: costs[i]}
	}
	bits := uint64(10 * cfg.keys)

	start := time.Now()
	single, err := habf.New(data.Positives, negatives, bits)
	if err != nil {
		return err
	}
	singleBuild := time.Since(start)

	var (
		sharded      *habf.Sharded
		shardedBuild time.Duration
		restored     bool
	)
	if cfg.restore != "" {
		start = time.Now()
		sharded, err = habf.LoadFile(cfg.restore)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		if cfg.backend != "" && sharded.Backend() != cfg.backend {
			return fmt.Errorf("restore: snapshot holds a %q filter, but -backend %q was requested",
				sharded.Backend(), cfg.backend)
		}
		if cfg.writers > 0 && sharded.Stats().ReadOnly {
			return fmt.Errorf("restore: %s is a filter-only snapshot, which takes no -writers", cfg.restore)
		}
		// Tuning knobs are durable in the snapshot; like -backend, a -tune
		// that contradicts them is an operator error, not a request the
		// restore can honor.
		if cfg.tune != "" {
			want, err := habf.ParseTuning(sharded.Backend(), cfg.tune)
			if err != nil {
				return fmt.Errorf("restore: -tune: %w", err)
			}
			if got := sharded.Tuning(); got != want {
				return fmt.Errorf("restore: snapshot tuning %q does not match -tune (%q)", got, want)
			}
		}
		shardedBuild = time.Since(start)
		restored = true
	} else {
		start = time.Now()
		sharded, err = habf.NewSharded(data.Positives, negatives, bits,
			habf.WithShards(cfg.shards), habf.WithBackend(cfg.backend), habf.WithTuning(cfg.tune))
		if err != nil {
			return err
		}
		shardedBuild = time.Since(start)
	}

	fmt.Fprintf(w, "serve: %d keys, %s access, %d shards, backend %s, batch %d, %d query workers, %d writers, GOMAXPROCS %d\n",
		cfg.keys, dist, sharded.NumShards(), sharded.Backend(), cfg.batch, cfg.workers, cfg.writers, runtime.GOMAXPROCS(0))
	if restored {
		fmt.Fprintf(w, "build: single %v, sharded restored from %s in %v (%.0f× vs single build)\n\n",
			singleBuild.Round(time.Millisecond), cfg.restore, shardedBuild.Round(time.Microsecond),
			float64(singleBuild)/float64(shardedBuild))
	} else {
		fmt.Fprintf(w, "build: single %v, sharded %v (parallel shard construction)\n\n",
			singleBuild.Round(time.Millisecond), shardedBuild.Round(time.Millisecond))
	}

	if !restored {
		// Accuracy line for the backend selection matrix: plain and
		// cost-weighted FPR over the known (zipf-weighted, adversarial)
		// negatives. Sampling contract (pinned by TestSamplingContract in
		// internal/metrics): both numbers are computed over exactly this
		// negative sample — the distribution cost-aware backends optimize
		// against — and estimate nothing beyond it; the uniform-universe
		// FPR of a backend can differ. Restored sets skip the line only
		// to keep -restore runs byte-input-only.
		fpr, err := habf.FPR(sharded, data.Negatives)
		if err != nil {
			return err
		}
		wfpr, err := habf.WeightedFPR(sharded, data.Negatives, costs)
		if err != nil {
			return err
		}
		// Build time rides the accuracy line because for the learned
		// backends it is the cost being traded for the FPR: model training
		// dominates their builds by orders of magnitude over the hash-based
		// families, and the matrix is meaningless without that column.
		fmt.Fprintf(w, "accuracy: %.2f bits/key, FPR %.4f%%, weighted FPR %.4f%% over the %d-key known-negative sample, built in %v\n\n",
			float64(sharded.SizeBits())/float64(cfg.keys), 100*fpr, 100*wfpr, cfg.keys,
			shardedBuild.Round(time.Millisecond))
	}

	if cfg.snapshot != "" {
		start = time.Now()
		if err := sharded.SaveFile(cfg.snapshot); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		// shardedBuild holds the restore time when -restore was also set,
		// so only label it a build time when it is one.
		if restored {
			fmt.Fprintf(w, "snapshot: wrote %s in %v (restore with -restore %s)\n\n",
				cfg.snapshot, time.Since(start).Round(time.Millisecond), cfg.snapshot)
		} else {
			fmt.Fprintf(w, "snapshot: wrote %s in %v (build was %v; restore with -restore %s)\n\n",
				cfg.snapshot, time.Since(start).Round(time.Millisecond),
				shardedBuild.Round(time.Millisecond), cfg.snapshot)
		}
	}

	// probeStream mixes positives and negatives under the distribution.
	probeStream := func(seed int64) ([][]byte, error) {
		return workload.MixProbes(dist, seed, 1<<16, data.Positives, data.Negatives)
	}

	// measure runs fn on cfg.workers goroutines (each with its own probe
	// stream) until cfg.ops keys have been processed in total, optionally
	// with background writers streaming Adds into the sharded set.
	measure := func(name string, withWriters bool, fn func(probes [][]byte, n int)) error {
		perWorker := cfg.ops / cfg.workers
		var wg sync.WaitGroup
		stop := make(chan struct{})
		if withWriters {
			for wr := 0; wr < cfg.writers; wr++ {
				wg.Add(1)
				go func(wr int) {
					defer wg.Done()
					i := 0
					for {
						select {
						case <-stop:
							return
						default:
							_ = sharded.Add([]byte(fmt.Sprintf("fresh-%d-%09d", wr, i))) // writable: checked at restore
							i++
						}
					}
				}(wr)
			}
		}
		streams := make([][][]byte, cfg.workers)
		for i := range streams {
			var err error
			if streams[i], err = probeStream(cfg.seed + int64(i)); err != nil {
				return err
			}
		}
		begin := time.Now()
		var qwg sync.WaitGroup
		for i := 0; i < cfg.workers; i++ {
			qwg.Add(1)
			go func(i int) {
				defer qwg.Done()
				fn(streams[i], perWorker)
			}(i)
		}
		qwg.Wait()
		elapsed := time.Since(begin)
		close(stop)
		wg.Wait()
		mqps := float64(perWorker*cfg.workers) / elapsed.Seconds() / 1e6
		fmt.Fprintf(w, "%-28s %10.2f Mqps   (%v)\n", name, mqps, elapsed.Round(time.Millisecond))
		return nil
	}

	if err := measure("single/perkey", false, func(probes [][]byte, n int) {
		mask := len(probes) - 1
		for i := 0; i < n; i++ {
			_ = single.Contains(probes[i&mask])
		}
	}); err != nil {
		return err
	}
	if err := measure("sharded/perkey", false, func(probes [][]byte, n int) {
		mask := len(probes) - 1
		for i := 0; i < n; i++ {
			_ = sharded.Contains(probes[i&mask])
		}
	}); err != nil {
		return err
	}
	batchFn := func(probes [][]byte, n int) {
		mask := len(probes) - 1
		for i := 0; i < n; i += cfg.batch {
			lo := i & mask
			hi := lo + cfg.batch
			if hi > len(probes) {
				hi = len(probes)
			}
			_ = sharded.ContainsBatch(probes[lo:hi])
		}
	}
	if err := measure("sharded/batch", false, batchFn); err != nil {
		return err
	}
	if cfg.writers > 0 {
		if err := measure("sharded/batch+writers", true, batchFn); err != nil {
			return err
		}
	}
	sharded.WaitRebuilds()
	st := sharded.Stats()
	fmt.Fprintf(w, "\nsharded stats: %d keys, %d adds pending rebuild, %d background rebuilds, %.1f KiB\n",
		st.Keys, st.Added, st.Rebuilds, float64(st.SizeBits)/8/1024)
	return nil
}
