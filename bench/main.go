// Command bench is the repository's reference benchmark: four workloads
// over a sharded HABF, each reporting end-to-end metrics on an untraced run
// and per-layer metrics on a traced one. See README.md for the workloads,
// the metrics and their bounds.
//
//	go run . -workload probe-hot -seed 1 -seconds 10 -trace 0
//
// It prints a header, one "workload metric value unit" line per metric,
// and as its last line one JSON object: correct, attempted, failed and the
// metrics. A false negative, an acked Add that answers false or a failed
// call makes the run incorrect and the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are printed by untraced runs, perLayer by traced ones, in this
// order. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"keys_per_s", "1/s"},
	{"fpr", "ratio"},
	{"bits_per_key", "bits"},
}

// perLayer starts with the end-to-end timings whose spread across runs on
// a shared 2-CPU host was too wide to carry a bound; see README.md.
var perLayer = []metricDef{
	{"call_p50_us", "us"},
	{"call_p99_us", "us"},
	{"add_p50_us", "us"},
	{"add_p99_us", "us"},
	{"hashes.base_ns_per_key", "ns"},
	{"filtercore.probe_ns_per_key", "ns"},
	{"filtercore.build_s", "s"},
	{"shard.batch_ns_per_key", "ns"},
	{"shard.self_ns_per_key", "ns"},
	{"shard.contains_ns", "ns"},
	{"shard.add_ns", "ns"},
	{"shard.rebuilds", "count"},
	{"wire.contains_codec_ns", "ns"},
	{"wire.batch_codec_ns_per_key", "ns"},
	{"socket.rtt_us", "us"},
	{"server.contains_service_us", "us"},
	{"server.batch_service_us", "us"},
	{"server.coalesce_keys_per_batch", "keys"},
	{"server.self_us", "us"},
	{"server.errors", "count"},
	{"snapshot.save_ms", "ms"},
	{"snapshot.load_ms", "ms"},
	{"snapshot.bytes_per_key", "B"},
	{"accuracy.fpr_weighted", "ratio"},
	{"trace.unattributed_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "all", "workload to run: probe-hot, probe-cold, rpc-single, rw-churn or all")
	seed := flag.Int64("seed", 1, "seed every generated key and probe derives from")
	seconds := flag.Float64("seconds", 10, "measured window per workload, after a 2 s warm-up")
	traced := flag.Int("trace", 0, "1 replays sampled calls layer by layer and reports per-layer metrics")
	spansPath := flag.String("spans", ".bench_build/spans.json", "where a traced run writes its spans")
	jsonPath := flag.String("json", "", "also write the result object to this file")
	flag.Parse()

	var run []spec
	for _, sp := range specs {
		if *name == "all" || *name == sp.name {
			run = append(run, sp)
		}
	}
	if len(run) == 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "bench: bad arguments: -workload %q -seconds %v -trace %d\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	// A lower GC target keeps the largest workload's construction heap
	// near 1.3 GiB; the measured paths allocate almost nothing.
	debug.SetGCPercent(50)

	cfg := config{seed: *seed, warmup: 2 * time.Second, window: time.Duration(*seconds * float64(time.Second)), slice: time.Second}
	defs := endToEnd
	var tr *tracer
	if *traced == 1 {
		defs, tr = perLayer, newTracer()
	}
	fmt.Printf("# %s %s/%s NumCPU=%d GOMAXPROCS=%d seed=%d trace=%d seconds=%g\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), *seed, *traced, *seconds)

	chk := &checker{}
	res := result{Metrics: map[string]jsonMetric{}}
	for _, sp := range run {
		got, err := runWorkload(sp, cfg, chk, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			if chk.err() == nil {
				os.Exit(2)
			}
			break
		}
		for _, d := range defs {
			s, ok := got[d.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: %s: no value for %s\n", sp.name, d.name)
				os.Exit(2)
			}
			line := fmt.Sprintf("%s %s %s %s", sp.name, d.name, strconv.FormatFloat(s.value, 'g', -1, 64), d.unit)
			if s.n > 0 {
				line += fmt.Sprintf(" n=%d", s.n)
			}
			fmt.Println(line)
			key := d.name
			if len(run) > 1 {
				key = sp.name + "/" + d.name
			}
			res.Metrics[key] = jsonMetric{Value: s.value, Unit: d.unit}
		}
		runtime.GC()
		debug.FreeOSMemory()
	}
	if tr != nil {
		if err := tr.write(*spansPath, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
	}
	if err := chk.err(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: incorrect: %v\n", err)
	}
	res.Correct = chk.err() == nil
	res.Attempted, res.Failed = chk.attempted.Load(), chk.failed.Load()
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
	}
	fmt.Println(string(b))
	os.Exit(chk.exitCode())
}
