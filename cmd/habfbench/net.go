package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	habf "repro"
	"repro/internal/benchfmt"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// netConfig drives the network load generator (-net): concurrent HTTP
// clients issuing single-key and batch membership queries against a
// habfserved instance, under a workload distribution, reporting
// throughput and latency percentiles.
type netConfig struct {
	addr      string // remote daemon base URL host:port; empty = in-process self-test
	addrBin   string // remote daemon's -listen-binary host:port, dialled as is (binary protocol runs)
	proto     string // wire formats to drive: http|binary|all ("" = http)
	backends  string // comma-separated backend names for the self-test ("" = habf)
	tune      string // rejected: -tune is a -serve option
	keys      int
	clients   int
	ops       int
	batch     int
	writers   int // rejected: -writers is a -serve option
	shards    int
	dist      string
	seed      int64
	benchjson string // write machine-readable results here
}

// rawContentType selects the JSON-free request fast path.
const rawContentType = "application/octet-stream"

func runNet(cfg netConfig, w io.Writer) error {
	dist, err := workload.Parse(cfg.dist)
	if err != nil {
		return err
	}
	if cfg.keys < 1 || cfg.clients < 1 || cfg.batch < 1 || cfg.ops < 1 {
		return fmt.Errorf("net: -keys, -clients, -batch and -ops must all be ≥ 1")
	}
	if cfg.tune != "" {
		return fmt.Errorf("net: -tune is a -serve option (habfbench -serve -tune k=v,...); -net measures every backend at its defaults")
	}
	if cfg.writers != 0 {
		return fmt.Errorf("net: -writers is a -serve option (habfbench -serve -writers n); -net measures reads only")
	}
	switch cfg.proto {
	case "", "http", "binary", "all":
	default:
		return fmt.Errorf("net: -proto %q: want http, binary or all", cfg.proto)
	}
	if cfg.addr != "" && cfg.protoHas("binary") && cfg.addrBin == "" {
		return fmt.Errorf("net: remote binary runs need -addr-binary (the daemon's -listen-binary port)")
	}
	data := dataset.YCSB(cfg.keys, cfg.keys, cfg.seed)
	costs := dataset.ZipfCosts(cfg.keys, 1.1, cfg.seed)
	negatives := make([]habf.WeightedKey, cfg.keys)
	for i := range negatives {
		negatives[i] = habf.WeightedKey{Key: data.Negatives[i], Cost: costs[i]}
	}

	// Per-client probe streams: even positions are negatives, odd are
	// members (the MixProbes parity convention), so the generator can
	// verify zero false negatives while it measures.
	streams := make([][][]byte, cfg.clients)
	for i := range streams {
		streams[i], err = workload.MixProbes(dist, cfg.seed+int64(i), 1<<14, data.Positives, data.Negatives)
		if err != nil {
			return err
		}
	}

	g := &netGen{cfg: cfg, streams: streams, out: w}
	g.transport = &http.Transport{
		MaxIdleConns:        cfg.clients * 2,
		MaxIdleConnsPerHost: cfg.clients * 2,
	}
	defer g.transport.CloseIdleConnections()

	fmt.Fprintf(w, "net: %d keys, %s access, %d clients, batch %d, GOMAXPROCS %d\n",
		cfg.keys, dist, cfg.clients, cfg.batch, runtime.GOMAXPROCS(0))

	if cfg.addr != "" {
		// Remote daemon: its backend is whatever it was started with, so
		// each transport runs once. The server-reported backend makes the
		// artifact self-describing.
		g.base = "http://" + cfg.addr
		name, backend, err := g.serverIdentity()
		if err != nil {
			return fmt.Errorf("net: query remote /v1/stats: %w", err)
		}
		g.noteBackends = backend
		fmt.Fprintf(w, "target: %s (remote, %s, backend %s)\n\n", g.base, name, backend)
		if cfg.protoHas("http") {
			if err := g.scenario("net/contains", g.containsLoop); err != nil {
				return err
			}
			if err := g.scenario("net/contains_batch", g.batchLoop); err != nil {
				return err
			}
		}
		if cfg.protoHas("binary") {
			g.binAddr = cfg.addrBin
			if err := g.scenario("net/contains/binary", g.binaryContainsLoop); err != nil {
				return err
			}
			if err := g.scenario("net/contains_batch/binary", g.binaryBatchLoop); err != nil {
				return err
			}
		}
		return g.finish()
	}

	// Self-test: build each requested backend's filter once and serve it
	// in-process. The transport rows run once, on the first backend: the
	// socket, not the filter, dominates their cost, so repeating them per
	// backend would only measure host noise. Every other backend gets the
	// two rows where the filter shows: the direct batch path and binary
	// batch frames. The default habf backend keeps unsuffixed scenario
	// names, so committed baselines stay comparable; other backends are
	// suffixed "/<name>".
	g.noteBackends = cfg.backendList()
	first := true
	for _, backendName := range strings.Split(cfg.backendList(), ",") {
		backendName = strings.TrimSpace(backendName)
		if backendName == "" {
			continue // stray comma in the -backend list
		}
		suffix := ""
		if backendName != "habf" {
			suffix = "/" + backendName
		}

		start := time.Now()
		filter, err := habf.NewSharded(data.Positives, negatives, uint64(10*cfg.keys),
			habf.WithShards(cfg.shards), habf.WithBackend(backendName))
		if err != nil {
			return fmt.Errorf("net: build %s: %w", backendName, err)
		}
		fmt.Fprintf(w, "target: in-process self-test (%d shards, backend %s, built in %v)\n\n",
			filter.NumShards(), filter.Backend(), time.Since(start).Round(time.Millisecond))

		// The direct scenario measures the hash-once, shard-grouped batch
		// read path with no server or wire format in front of it — the
		// floor every net/contains_batch number sits on top of.
		g.filter = filter
		err = g.scenario("direct/contains_batch"+suffix, g.directBatchLoop)
		g.filter = nil
		if err != nil {
			return err
		}
		if first {
			err = g.transportScenarios(filter, backendName, suffix)
		} else if cfg.protoHas("binary") {
			err = g.served(filter, backendName, func() error {
				return g.scenario("net/contains_batch/binary"+suffix, g.binaryBatchLoop)
			})
		}
		if err != nil {
			return err
		}
		first = false
		fmt.Fprintln(w)
	}
	return g.finish()
}

// transportScenarios runs every transport row against filter: HTTP
// single-key and batch, and their binary-protocol counterparts.
func (g *netGen) transportScenarios(filter *habf.Sharded, backendName, suffix string) error {
	return g.served(filter, backendName, func() error {
		if g.cfg.protoHas("http") {
			if err := g.scenario("net/contains"+suffix, g.containsLoop); err != nil {
				return err
			}
			if err := g.scenario("net/contains_batch"+suffix, g.batchLoop); err != nil {
				return err
			}
		}
		if g.cfg.protoHas("binary") {
			if err := g.scenario("net/contains/binary"+suffix, g.binaryContainsLoop); err != nil {
				return err
			}
			if err := g.scenario("net/contains_batch/binary"+suffix, g.binaryBatchLoop); err != nil {
				return err
			}
		}
		return nil
	})
}

// served runs fn with filter served in-process, after checking that the
// server reports the backend that was built.
func (g *netGen) served(filter *habf.Sharded, backendName string, fn func() error) error {
	stop, err := g.startServer(filter)
	if err != nil {
		return err
	}
	defer stop()
	if reported := g.lastBackend; reported != "" && reported != backendName {
		return fmt.Errorf("net: server reports backend %q, built %q", reported, backendName)
	}
	return fn()
}

// protoHas reports whether the -proto flag selects wire format p.
func (cfg netConfig) protoHas(p string) bool {
	switch cfg.proto {
	case "", "http":
		return p == "http"
	case "binary":
		return p == "binary"
	case "all":
		return true
	}
	return false
}

// backendList normalizes the -backend flag for the self-test loop.
func (cfg netConfig) backendList() string {
	if cfg.backends == "" {
		return "habf"
	}
	return cfg.backends
}

// netGen holds load-generator state shared across scenarios.
type netGen struct {
	cfg       netConfig
	streams   [][][]byte
	transport *http.Transport
	base      string
	binAddr   string // binary-protocol listener address ("" when not serving it)
	out       io.Writer
	results   []benchfmt.Result
	// lastBackend is the backend the most recently started in-process
	// server reported via /v1/stats — a self-check that the bench drives
	// what it thinks it does. noteBackends names the backend(s) driven,
	// for the benchjson artifact.
	lastBackend  string
	noteBackends string
	// filter is the in-process self-test filter of the backend currently
	// being driven; the direct/* scenarios query it without a server in
	// between, so the shard-layer batch pipeline is measured by itself.
	filter *habf.Sharded
}

// serverIdentity asks the target's /v1/stats for its filter name and
// backend, so bench output and artifacts are self-describing. It rides
// the generator's own transport (keep-alive pool, deferred cleanup)
// with a timeout, so a hung target fails the probe instead of wedging
// the whole run.
func (g *netGen) serverIdentity() (name, backend string, err error) {
	hc := &http.Client{Transport: g.transport, Timeout: 10 * time.Second}
	resp, err := hc.Get(g.base + "/v1/stats")
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	var st struct {
		Name    string `json:"name"`
		Backend string `json:"backend"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", "", err
	}
	return st.Name, st.Backend, nil
}

// loopFunc runs one client's share of a scenario: n keys from probes,
// recording one latency sample per HTTP request into lat.
type loopFunc func(client int, probes [][]byte, n int, lat *[]int64) error

// startServer serves filter on loopback listeners (HTTP always, plus
// the binary protocol when -proto asks for it); the returned func tears
// everything down.
func (g *netGen) startServer(filter *habf.Sharded) (func(), error) {
	srv, err := server.New(server.Config{Filter: filter})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(l)
	g.base = "http://" + l.Addr().String()

	var bs *server.BinaryServer
	g.binAddr = ""
	if g.cfg.protoHas("binary") {
		bl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			hs.Close()
			return nil, err
		}
		bs = server.NewBinaryServer(srv)
		go bs.Serve(bl)
		g.binAddr = bl.Addr().String()
	}

	g.lastBackend = "" // never let a previous server's identity leak
	if _, backend, err := g.serverIdentity(); err == nil {
		g.lastBackend = backend
	}
	return func() {
		hs.Close()
		if bs != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			bs.Shutdown(ctx)
			cancel()
		}
		g.transport.CloseIdleConnections()
	}, nil
}

// binaryContainsLoop issues single-key queries over the binary wire
// protocol, one synchronous connection per client.
func (g *netGen) binaryContainsLoop(client int, probes [][]byte, n int, lat *[]int64) error {
	c, err := wire.Dial(g.binAddr)
	if err != nil {
		return err
	}
	defer c.Close()
	mask := len(probes) - 1
	for i := 0; i < n; i++ {
		idx := i & mask
		start := time.Now()
		present, err := c.Contains(probes[idx])
		if err != nil {
			return err
		}
		*lat = append(*lat, time.Since(start).Nanoseconds())
		if idx%2 == 1 && !present {
			return fmt.Errorf("false negative over binary protocol for member probe %d", idx)
		}
	}
	return nil
}

// binaryBatchLoop issues OpContainsBatch frames of the configured batch
// size; like batchLoop, one latency sample covers a whole batch while
// ops stay per-key.
func (g *netGen) binaryBatchLoop(client int, probes [][]byte, n int, lat *[]int64) error {
	c, err := wire.Dial(g.binAddr)
	if err != nil {
		return err
	}
	defer c.Close()
	mask := len(probes) - 1
	batch := make([][]byte, g.cfg.batch)
	for done := 0; done < n; {
		size := g.cfg.batch
		if n-done < size {
			size = n - done
		}
		lo := done & mask
		for j := 0; j < size; j++ {
			batch[j] = probes[(lo+j)&mask]
		}
		start := time.Now()
		present, err := c.ContainsBatch(batch[:size])
		if err != nil {
			return err
		}
		*lat = append(*lat, time.Since(start).Nanoseconds())
		for j, ok := range present {
			if ((lo+j)&mask)%2 == 1 && !ok {
				return fmt.Errorf("false negative over binary protocol for member probe %d", (lo+j)&mask)
			}
		}
		done += size
	}
	return nil
}

// scenario fans n total keys across the configured clients through
// loop, measures wall time and per-request latency, verifies the
// zero-false-negative contract on member probes, and records the
// result.
func (g *netGen) scenario(name string, loop loopFunc) error {
	cfg := g.cfg
	perClient := cfg.ops / cfg.clients
	if perClient == 0 {
		perClient = 1
	}

	// Warmup establishes connections and warms the server.
	warm := perClient / 10
	if warm > 2000 {
		warm = 2000
	}
	if warm < 1 {
		warm = 1
	}
	var warmLat []int64
	if err := loop(0, g.streams[0], warm, &warmLat); err != nil {
		return fmt.Errorf("%s: warmup: %w", name, err)
	}

	lats := make([][]int64, cfg.clients)
	errs := make([]error, cfg.clients)
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = loop(c, g.streams[c], perClient, &lats[c])
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(begin)
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}

	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	ops := int64(perClient) * int64(cfg.clients)
	res := benchfmt.Result{
		Name:    name,
		Clients: cfg.clients,
		Ops:     ops,
		NsPerOp: float64(elapsed.Nanoseconds()) / float64(ops),
		QPS:     float64(ops) / elapsed.Seconds(),
		P50Ns:   benchfmt.Percentile(all, 50),
		P95Ns:   benchfmt.Percentile(all, 95),
		P99Ns:   benchfmt.Percentile(all, 99),
	}
	g.results = append(g.results, res)
	fmt.Fprintf(g.out, "%-32s %9.0f qps  %8.0f ns/op   p50 %s  p95 %s  p99 %s   (%v)\n",
		name, res.QPS, res.NsPerOp,
		time.Duration(res.P50Ns).Round(time.Microsecond),
		time.Duration(res.P95Ns).Round(time.Microsecond),
		time.Duration(res.P99Ns).Round(time.Microsecond),
		elapsed.Round(time.Millisecond))
	return nil
}

// containsLoop issues raw single-key /v1/contains requests.
func (g *netGen) containsLoop(client int, probes [][]byte, n int, lat *[]int64) error {
	hc := &http.Client{Transport: g.transport}
	url := g.base + "/v1/contains"
	mask := len(probes) - 1
	var buf [8]byte
	for i := 0; i < n; i++ {
		idx := i & mask
		start := time.Now()
		resp, err := hc.Post(url, rawContentType, bytes.NewReader(probes[idx]))
		if err != nil {
			return err
		}
		nr, err := io.ReadFull(resp.Body, buf[:1])
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || nr != 1 {
			return fmt.Errorf("short contains response (%d bytes): %v", nr, err)
		}
		*lat = append(*lat, time.Since(start).Nanoseconds())
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("contains: HTTP %d", resp.StatusCode)
		}
		if idx%2 == 1 && buf[0] != '1' {
			return fmt.Errorf("false negative over HTTP for member probe %d", idx)
		}
	}
	return nil
}

// batchLoop issues /v1/contains_batch requests of the configured batch
// size; one latency sample covers one whole batch, but ops/NsPerOp stay
// per-key so batch numbers compare directly against single-key ones.
func (g *netGen) batchLoop(client int, probes [][]byte, n int, lat *[]int64) error {
	hc := &http.Client{Transport: g.transport}
	url := g.base + "/v1/contains_batch"
	mask := len(probes) - 1
	type batchResp struct {
		Present []bool `json:"present"`
	}
	enc := make([]string, g.cfg.batch)
	for done := 0; done < n; {
		size := g.cfg.batch
		if n-done < size {
			size = n - done
		}
		lo := done & mask
		for j := 0; j < size; j++ {
			enc[j] = base64.StdEncoding.EncodeToString(probes[(lo+j)&mask])
		}
		body, err := json.Marshal(map[string][]string{"keys": enc[:size]})
		if err != nil {
			return err
		}
		start := time.Now()
		resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var br batchResp
		err = json.NewDecoder(resp.Body).Decode(&br)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("contains_batch decode: %w", err)
		}
		*lat = append(*lat, time.Since(start).Nanoseconds())
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("contains_batch: HTTP %d", resp.StatusCode)
		}
		if len(br.Present) != size {
			return fmt.Errorf("contains_batch: %d results for %d keys", len(br.Present), size)
		}
		for j, ok := range br.Present {
			if ((lo+j)&mask)%2 == 1 && !ok {
				return fmt.Errorf("false negative over HTTP for member probe %d", (lo+j)&mask)
			}
		}
		done += size
	}
	return nil
}

// directBatchLoop drives the sharded filter's ContainsBatchInto with no
// server in between: batches of the configured size from a reused,
// caller-owned destination buffer — exactly the steady state a serving
// loop reaches. One latency sample covers one batch; ops stay per-key,
// comparable with every other scenario.
func (g *netGen) directBatchLoop(client int, probes [][]byte, n int, lat *[]int64) error {
	mask := len(probes) - 1
	dst := make([]bool, g.cfg.batch)
	batch := make([][]byte, g.cfg.batch)
	for done := 0; done < n; {
		size := g.cfg.batch
		if n-done < size {
			size = n - done
		}
		lo := done & mask
		for j := 0; j < size; j++ {
			batch[j] = probes[(lo+j)&mask]
		}
		start := time.Now()
		g.filter.ContainsBatchInto(dst[:size], batch[:size])
		*lat = append(*lat, time.Since(start).Nanoseconds())
		for j := 0; j < size; j++ {
			if ((lo+j)&mask)%2 == 1 && !dst[j] {
				return fmt.Errorf("false negative in direct batch for member probe %d", (lo+j)&mask)
			}
		}
		done += size
	}
	return nil
}

// finish writes the optional JSON results file.
func (g *netGen) finish() error {
	if g.cfg.benchjson == "" {
		return nil
	}
	f := benchfmt.File{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Note:      fmt.Sprintf("habfbench -net: %d keys, %s access, %d clients, batch %d, backends %s", g.cfg.keys, g.cfg.dist, g.cfg.clients, g.cfg.batch, g.noteBackends),
		Results:   g.results,
	}
	if err := benchfmt.Write(g.cfg.benchjson, f); err != nil {
		return err
	}
	fmt.Fprintf(g.out, "\nwrote %s (%d results)\n", g.cfg.benchjson, len(g.results))
	return nil
}
