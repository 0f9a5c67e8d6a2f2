// Command habfbench regenerates the paper's evaluation figures (§V,
// Figs. 8–15) plus the ablation study as text tables.
//
// Usage:
//
//	habfbench -list
//	habfbench -fig fig10 [-scale 1.0] [-seed 1]
//	habfbench -all [-scale 0.25]
//	habfbench -serve [-shards 8] [-dist zipfian] [-batch 256] [-workers 4] [-writers 1]
//	habfbench -serve -backend xor                 # serve a baseline filter family
//	habfbench -serve -snapshot filter.snap        # build, then checkpoint
//	habfbench -serve -restore filter.snap         # restore instead of building
//	habfbench -serve -tune k=4,cellbits=5         # serve with non-default tuning knobs
//	habfbench -net [-clients 8] [-dist zipfian] [-benchjson BENCH_serve.json]
//	habfbench -net -backend habf,bloom,xor        # compare backends on identical traffic
//	habfbench -net -addr host:8080                # drive a running habfserved
//	habfbench -net -proto all                     # HTTP and the binary wire protocol
//
// Scale 1.0 runs 40 k Shalla keys and 100 k YCSB keys per side with the
// paper's bits-per-key grid; larger scales approach the published sizes.
// -serve runs the serving-layer throughput comparison instead: per-key
// queries against one filter vs the sharded filter vs sharded batches,
// under a uniform/zipfian/sequential/latest key-access distribution,
// optionally with concurrent writers on the no-external-locking Add path.
// -snapshot saves the sharded filter after construction; -restore loads
// it (zero-copy) instead of rebuilding and reports restore-vs-build
// timing, so the cold-start win is measurable on real hardware.
// -net is the network load generator: concurrent HTTP clients issue
// single-key and batch queries against habfserved (a remote -addr, or an
// in-process self-test instance) under a workload distribution, report
// throughput and latency percentiles, and optionally write the
// machine-readable BENCH_serve.json that CI's regression gate compares
// against the committed baseline. -proto selects the wire format(s):
// http (default), binary (the internal/wire length-prefixed protocol,
// scenarios suffixed "/binary"), or all; remote binary runs need
// -addr-binary, the host:port of habfserved's -listen-binary listener.
// Both serving modes take -backend: -serve benchmarks one filter family
// per run, and -net accepts a comma-separated list. -net runs the
// transport scenarios once, on the first backend; every further backend
// gets a direct batch row and a binary batch row, suffixed "/<name>"
// (non-default backends carry the suffix on every row).
// -tune ("k=v,k=v", the backend's knob set; a -restore must carry
// matching knobs) and -writers belong to -serve only: -net measures
// reads at default knobs and rejects both.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		fig   = flag.String("fig", "", "experiment id to run (see -list)")
		all   = flag.Bool("all", false, "run every experiment")
		list  = flag.Bool("list", false, "list experiment ids")
		scale = flag.Float64("scale", 1.0, "dataset scale multiplier")
		seed  = flag.Int64("seed", 1, "workload and construction seed")

		serve    = flag.Bool("serve", false, "run the serving-layer throughput benchmark")
		backend  = flag.String("backend", "", "serve/net: filter backend (net: comma-separated list; default habf)")
		tune     = flag.String("tune", "", "serve: backend tuning knobs, k=v,k=v")
		shards   = flag.Int("shards", 8, "serve: shard count (rounded up to a power of two)")
		dist     = flag.String("dist", "zipfian", "serve: key distribution (uniform|zipfian|sequential|latest)")
		keys     = flag.Int("keys", 100000, "serve: positive/negative keys per side")
		batch    = flag.Int("batch", 256, "serve: ContainsBatch size")
		workers  = flag.Int("workers", 4, "serve: concurrent query goroutines")
		writers  = flag.Int("writers", 1, "serve: concurrent Add goroutines in the mixed phase")
		ops      = flag.Int("ops", 4_000_000, "serve: total keys queried per measurement (net: defaults to 48000)")
		snapPath = flag.String("snapshot", "", "serve: save the sharded filter's snapshot to this path after building")
		restore  = flag.String("restore", "", "serve: restore the sharded filter from this snapshot instead of building it")

		netMode   = flag.Bool("net", false, "run the network load generator against habfserved")
		addr      = flag.String("addr", "", "net: host:port of a running habfserved (empty: in-process self-test)")
		addrBin   = flag.String("addr-binary", "", "net: host:port of a remote habfserved binary listener (-listen-binary)")
		proto     = flag.String("proto", "http", "net: protocols to drive: http|binary|all")
		clients   = flag.Int("clients", 8, "net: concurrent HTTP clients")
		benchjson = flag.String("benchjson", "", "net: write machine-readable results to this JSON file")
	)
	flag.Parse()

	switch {
	case *netMode:
		netOps := *ops
		if !flagWasSet("ops") {
			// HTTP requests cost three orders of magnitude more than
			// in-process queries; the -serve default would run for ages.
			netOps = 48_000
		}
		netKeys := *keys
		if !flagWasSet("keys") {
			netKeys = 20_000
		}
		cfg := netConfig{
			addr:      *addr,
			addrBin:   *addrBin,
			proto:     *proto,
			backends:  *backend,
			tune:      *tune,
			keys:      netKeys,
			clients:   *clients,
			ops:       netOps,
			batch:     *batch,
			writers:   0,
			shards:    *shards,
			dist:      *dist,
			seed:      *seed,
			benchjson: *benchjson,
		}
		if flagWasSet("writers") {
			cfg.writers = *writers
		}
		if err := runNet(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "habfbench:", err)
			os.Exit(1)
		}
	case *serve:
		cfg := serveConfig{
			keys:     *keys,
			backend:  *backend,
			tune:     *tune,
			shards:   *shards,
			batch:    *batch,
			workers:  *workers,
			ops:      *ops,
			dist:     *dist,
			writers:  *writers,
			seed:     *seed,
			snapshot: *snapPath,
			restore:  *restore,
		}
		if err := runServe(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "habfbench:", err)
			os.Exit(1)
		}
	case *list:
		for _, id := range experiments.All() {
			fmt.Println(id)
		}
	case *all:
		cfg := experiments.Config{Scale: *scale, Seed: *seed}
		for _, id := range experiments.All() {
			start := time.Now()
			if err := experiments.Run(id, cfg, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "habfbench:", err)
				os.Exit(1)
			}
			fmt.Printf("-- %s done in %v --\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	case *fig != "":
		cfg := experiments.Config{Scale: *scale, Seed: *seed}
		if err := experiments.Run(*fig, cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "habfbench:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// flagWasSet reports whether the named flag was given on the command
// line, so modes can default shared flags differently.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
