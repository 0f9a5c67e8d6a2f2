package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	habf "repro"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

const (
	shardBits  = 3
	shards     = 1 << shardBits
	bitsPerKey = 10
	batchSize  = 256
	callers    = 2 // load goroutines and connections: one per CPU of the 2-CPU reference host
	// Every run adds this share of the members as fresh keys: rw-churn at an
	// even rate through the window, the others after it. At 3% every shard
	// crosses the 2% rebuild threshold once, two thirds of the way through.
	addShare    = 0.03
	minAdds     = 2000 // so every add_p99 has ten samples beyond it, at any scale
	addChunk    = 1000 // Adds per timed chunk: enough for the chunk's own p99
	setups      = 5    // set-ups per run; setup_s is their median, fpr their mean
	snapCycles  = 5    // Save/Load cycles per run
	sampleEvery = 64   // traced runs replay one call in this many, and one Add
	traceSlice  = 250 * time.Millisecond
)

// kind is how a workload's callers reach the filter.
type kind int

const (
	inproc    kind = iota // Sharded.ContainsBatchInto on the caller's goroutine
	rpcSingle             // binary Contains over loopback, one key per request
	rwChurn               // binary ContainsBatch reads beside fixed-rate binary Adds
)

type spec struct {
	name    string
	members int // members, and as many known negatives
	keys    keyGen
	dist    workload.Distribution
	kind    kind
}

// specs are the workloads. probe-cold holds 3M keys rather than more so that
// its peak heap stays near 1.3 GiB on a shared host; its filter is still
// nearly twice the 2 MiB per-core L2.
var specs = []spec{
	{"probe-hot", 1_000_000, ycsbKeys, workload.Zipfian, inproc},
	{"probe-cold", 3_000_000, prefixKeys, workload.Uniform, inproc},
	{"rpc-single", 1_000_000, ycsbKeys, workload.Zipfian, rpcSingle},
	{"rw-churn", 1_000_000, ycsbKeys, workload.Zipfian, rwChurn},
}

type config struct {
	seed    int64
	warmup  time.Duration
	window  time.Duration
	slice   time.Duration // the window is cut into slices about this long
	members int           // overrides every spec's member count when positive
}

// sample is one metric's value and, for a percentile, its sample count.
type sample struct {
	value float64
	n     int
}

const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseStop
)

type runner struct {
	sp  spec
	cfg config
	chk *checker
	tr  *tracer // nil on untraced runs
	ks  keySet

	phase  atomic.Int32
	traced atomic.Bool // the current slice of a traced run's window replays samples

	// The window is cut into slices; start is set before the phase turns
	// to measure.
	start  time.Time
	slices int
	width  time.Duration
}

// slice returns the window slice a call that started at t falls in.
func (r *runner) slice(t time.Time) (int, bool) {
	i := int(t.Sub(r.start) / r.width)
	return i, i >= 0 && i < r.slices
}

// caller is one closed-loop load goroutine's state.
type caller struct {
	probes [][]byte
	cursor int
	batch  int
	dst    []bool
	client *wire.Client
	rp     *replayer // traced runs only

	s      series   // calls in the window
	byMode [2]int64 // keys answered in the window's untraced and traced slices
	calls  int64
}

func (c *caller) next() ([][]byte, int) {
	if c.cursor+c.batch > len(c.probes) {
		c.cursor = 0
	}
	base := c.cursor
	c.cursor += c.batch
	return c.probes[base:c.cursor], base
}

// target is the filter a workload's callers reach and, for the rpc kinds,
// the server in front of it.
type target struct {
	f       *habf.Sharded
	srv     *server.Server
	bin     *server.BinaryServer
	served  chan error
	clients []*wire.Client
}

// serve starts a binary server over f on a loopback port and connects
// conns clients, each of which has answered a ping.
func serve(f *habf.Sharded, conns int) (*target, error) {
	srv, err := server.New(server.Config{Filter: f})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	t := &target{f: f, srv: srv, bin: server.NewBinaryServer(srv), served: make(chan error, 1)}
	go func() { t.served <- t.bin.Serve(ln) }()
	for i := 0; i < conns; i++ {
		c, err := wire.Dial(ln.Addr().String())
		if err == nil {
			t.clients = append(t.clients, c)
			err = c.Ping()
		}
		if err != nil {
			t.close()
			return nil, fmt.Errorf("connect to the binary server: %w", err)
		}
	}
	return t, nil
}

// close disconnects the clients, drains the server and waits for it.
func (t *target) close() error {
	for _, c := range t.clients {
		c.Close()
	}
	if t.bin == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := t.bin.Shutdown(ctx)
	if serr := <-t.served; err == nil {
		err = serr
	}
	t.srv.Close()
	return err
}

// setUp builds the filter over the members and makes it servable: in
// process, or behind a binary server with every caller connected.
func (r *runner) setUp(negs []habf.WeightedKey, seed int64) (*target, error) {
	f, err := habf.NewSharded(r.ks.members, negs, uint64(bitsPerKey*len(r.ks.members)),
		habf.WithShards(shards), habf.WithShardFilterOptions(habf.WithSeed(seed)))
	if err != nil {
		return nil, err
	}
	if r.sp.kind != inproc {
		return serve(f, callers)
	}
	r.chk.attempt(1)
	if !f.Contains(r.ks.members[0]) {
		r.chk.fail(fmt.Errorf("%s: first call: a member answers false", r.sp.name))
	}
	return &target{f: f}, nil
}

// accuracy is the plain and the cost-weighted false-positive rate over the
// known negatives.
func (r *runner) accuracy(f *habf.Sharded) (fpr, weighted float64) {
	var fp, cost, total float64
	for i, ok := range answer(f, r.ks.negatives) {
		total += r.ks.costs[i]
		if ok {
			fp++
			cost += r.ks.costs[i]
		}
	}
	return fp / float64(len(r.ks.negatives)), cost / total
}

// runWorkload runs one workload and returns its end-to-end metrics, or on a
// traced run (tr non-nil) its per-layer metrics.
func runWorkload(sp spec, cfg config, chk *checker, tr *tracer) (map[string]sample, error) {
	r := &runner{sp: sp, cfg: cfg, chk: chk, tr: tr, slices: max(1, int(cfg.window/cfg.slice))}
	r.width = cfg.window / time.Duration(r.slices)
	m, err := r.run()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	return m, nil
}

// outcome is what one run measured.
type outcome struct {
	setupS, fprs, weighted []float64 // one per set-up
	bitsPerKey             float64
	reads, adds            series
	byMode                 [2]int64         // keys read in the window's untraced and traced slices
	spent                  [2]time.Duration // the window's untraced and traced time
	added                  int
	rebuilds               uint64
	snapBytes              int
}

func (r *runner) run() (map[string]sample, error) {
	n := r.sp.members
	if r.cfg.members > 0 {
		n = r.cfg.members
	}
	r.ks = r.sp.keys(n, n, max(int(addShare*float64(n)), minAdds), r.cfg.seed)

	var o outcome
	tg, err := r.setUps(&o)
	if err != nil {
		return nil, err
	}
	defer tg.close()
	var rig *traceRig
	if r.tr != nil {
		if rig, err = newRig(r, tg); err != nil {
			return nil, err
		}
		defer rig.close()
	}
	if err := r.window(tg, rig, &o); err != nil {
		return nil, err
	}

	// The other workloads add their fresh keys after the window, closed
	// loop, through their own path, timed in chunks of addChunk.
	if r.sp.kind != rwChurn {
		var remote *wire.Client
		if r.sp.kind == rpcSingle {
			remote = tg.clients[0]
		}
		var lat []float64
		for i, key := range r.ks.fresh {
			l, timed, err := r.add(i, key, tg.f, remote)
			if err != nil {
				return nil, fmt.Errorf("add: %w", err)
			}
			if timed {
				lat = append(lat, l)
			}
			o.added++
		}
		o.adds = chunked(lat, addChunk)
	}
	tg.f.WaitRebuilds()
	o.rebuilds = tg.f.Stats().Rebuilds
	acked := r.ks.fresh[:o.added]
	r.chk.acked(r.sp.name+" members after adds", tg.f, r.ks.members)
	r.chk.acked(r.sp.name+" acked adds", tg.f, acked)
	if err := r.snapshots(tg.f, acked, &o); err != nil {
		return nil, err
	}
	if r.tr != nil {
		return r.perLayer(&o, rig, n)
	}
	return r.endToEnd(&o), nil
}

// setUps builds and serves the filter setups times, each timed from built
// keys to the first servable call, and keeps the last.
func (r *runner) setUps(o *outcome) (*target, error) {
	negs := make([]habf.WeightedKey, len(r.ks.negatives))
	for i, k := range r.ks.negatives {
		negs[i] = habf.WeightedKey{Key: k, Cost: r.ks.costs[i]}
	}
	var tg *target
	for i := 0; i < setups; i++ {
		if tg != nil {
			if err := tg.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if tg, err = r.setUp(negs, int64(i+1)); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		fpr, w := r.accuracy(tg.f)
		o.fprs, o.weighted = append(o.fprs, fpr), append(o.weighted, w)
	}
	o.bitsPerKey = float64(tg.f.SizeBits()) / float64(len(r.ks.members))
	r.chk.acked(r.sp.name+" members after set-up", tg.f, r.ks.members)
	return tg, nil
}

// window runs the callers through the warm-up and the measured window, and
// on rw-churn the writer beside them.
func (r *runner) window(tg *target, rig *traceRig, o *outcome) error {
	readers := callers
	if r.sp.kind == rwChurn {
		readers = 1 // the second connection adds
	}
	cs := make([]*caller, readers)
	for i := range cs {
		probes, err := probeStream(r.ks, r.sp.dist, r.cfg.seed, i, min(1<<20, 4*len(r.ks.members))/batchSize*batchSize)
		if err != nil {
			return err
		}
		c := &caller{probes: probes, batch: batchSize, dst: make([]bool, batchSize), s: newSeries(r.slices)}
		if r.sp.kind == rpcSingle {
			c.batch = 1
		}
		if r.sp.kind != inproc {
			c.client = tg.clients[i]
		}
		if rig != nil {
			if c.rp, err = rig.replayer(r, tg, i); err != nil {
				return err
			}
		}
		cs[i] = c
	}
	var call func(c *caller, keys [][]byte) error
	switch r.sp.kind {
	case inproc:
		call = func(c *caller, keys [][]byte) error {
			tg.f.ContainsBatchInto(c.dst, keys)
			return nil
		}
	case rpcSingle:
		call = func(c *caller, keys [][]byte) error {
			ok, err := c.client.Contains(keys[0])
			c.dst[0] = ok
			return err
		}
	case rwChurn:
		call = func(c *caller, keys [][]byte) error {
			res, err := c.client.ContainsBatch(keys)
			copy(c.dst, res)
			return err
		}
	}

	runtime.GC()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			r.read(c, call)
		}(c)
	}
	time.Sleep(r.cfg.warmup)
	var addErr error
	r.start = time.Now()
	r.phase.Store(phaseMeasure)
	if r.sp.kind == rwChurn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.adds, o.added, addErr = r.addAtRate(tg)
		}()
	}
	o.spent = r.measure()
	r.phase.Store(phaseStop)
	wg.Wait()
	if addErr != nil {
		return fmt.Errorf("add: %w", addErr)
	}
	o.reads = newSeries(r.slices)
	for _, c := range cs {
		o.byMode[0] += c.byMode[0]
		o.byMode[1] += c.byMode[1]
		o.reads.merge(c.s)
		if c.rp != nil {
			r.tr.merge(c.rp.spans)
		}
	}
	return nil
}

func (r *runner) endToEnd(o *outcome) map[string]sample {
	return map[string]sample{
		"setup_s":      {value: median(o.setupS), n: len(o.setupS)},
		"keys_per_s":   {value: o.reads.rate(r.width), n: r.slices},
		"fpr":          {value: mean(o.fprs), n: len(o.fprs)},
		"bits_per_key": {value: o.bitsPerKey},
	}
}

// perLayer reports the span ledger, the server's own counters and the
// timings demoted from end to end. A traced run times calls only in its
// untraced slices, and Adds only when they were not sampled.
func (r *runner) perLayer(o *outcome, rig *traceRig, members int) (map[string]sample, error) {
	calls, err := o.reads.latency()
	if err != nil {
		return nil, fmt.Errorf("call latency: %w", err)
	}
	adds, err := o.adds.latency()
	if err != nil {
		return nil, fmt.Errorf("add latency: %w", err)
	}
	m, err := ledger(r.tr.of(r.sp.name))
	if err != nil {
		return nil, err
	}
	scraped, err := scrapeServer(rig.srv.Handler())
	if err != nil {
		return nil, err
	}
	for k, v := range scraped {
		m[k] = v
	}
	m["filtercore.build_s"] = median(rig.layer.buildS)
	m["shard.rebuilds"] = float64(o.rebuilds)
	m["snapshot.bytes_per_key"] = float64(o.snapBytes) / float64(members+o.added)
	m["accuracy.fpr_weighted"] = mean(o.weighted)
	m["trace.overhead_ratio"] = (float64(o.byMode[0]) / o.spent[0].Seconds()) / (float64(o.byMode[1]) / o.spent[1].Seconds())
	out := map[string]sample{
		"call_p50_us": {value: calls.p50, n: calls.n},
		"call_p99_us": {value: calls.p99, n: calls.n},
		"add_p50_us":  {value: adds.p50, n: adds.n},
		"add_p99_us":  {value: adds.p99, n: adds.n},
	}
	for k, v := range m {
		out[k] = sample{value: v}
	}
	return out, nil
}

// read is one closed-loop caller: it sends its next call only after the
// previous one answered, until the run stops.
func (r *runner) read(c *caller, call func(c *caller, keys [][]byte) error) {
	for {
		ph := r.phase.Load()
		if ph == phaseStop {
			return
		}
		keys, base := c.next()
		traced := r.traced.Load()
		t0 := time.Now()
		err := call(c, keys)
		took := time.Since(t0)
		r.chk.attempt(1)
		if err != nil {
			r.chk.fail(fmt.Errorf("%s: call: %w", r.sp.name, err))
			return
		}
		r.chk.probes(r.sp.name, base, c.dst[:len(keys)])
		if ph != phaseMeasure {
			continue
		}
		i, in := r.slice(t0) // r.start is safe to read once the phase says measure
		if !in {
			continue
		}
		mode := 0
		if traced {
			mode = 1
		} else {
			c.s.add(i, float64(took.Nanoseconds())/1e3, len(keys))
		}
		c.byMode[mode] += int64(len(keys))
		c.calls++
		if traced && c.calls%sampleEvery == 0 {
			if err := c.rp.replay(t0, took, keys, base); err != nil {
				r.chk.fail(fmt.Errorf("%s: replay: %w", r.sp.name, err))
				return
			}
		}
	}
}

// measure waits out the window and returns the time it spent untraced and
// traced. A traced run alternates untraced and traced slices, so that the
// two throughputs it compares see the same filter state.
func (r *runner) measure() [2]time.Duration {
	start := time.Now()
	if r.tr == nil {
		time.Sleep(r.cfg.window)
		return [2]time.Duration{time.Since(start)}
	}
	var spent [2]time.Duration
	for mode, t := 0, start; t.Sub(start) < r.cfg.window; mode ^= 1 {
		r.traced.Store(mode == 1)
		time.Sleep(min(traceSlice, r.cfg.window-t.Sub(start)))
		now := time.Now()
		spent[mode] += now.Sub(t)
		t = now
	}
	r.traced.Store(false)
	return spent
}

// add inserts fresh key i, through remote when given, and returns its
// latency in µs. In traced runs every sampleEvery-th Add goes through
// Sharded.Add in process inside a shard.add span, so the shard layer's own
// cost is timed without inserting the key twice; timed is false for those.
func (r *runner) add(i int, key []byte, f *habf.Sharded, remote *wire.Client) (lat float64, timed bool, err error) {
	sampled := r.tr != nil && i%sampleEvery == 0
	r.chk.attempt(1)
	t0 := time.Now()
	if remote == nil || sampled {
		f.Add(key)
	} else {
		err = remote.Add(key)
	}
	t1 := time.Now()
	if err != nil {
		r.chk.fail(fmt.Errorf("%s: add: %w", r.sp.name, err))
		return 0, false, err
	}
	if sampled {
		r.tr.root(r.sp.name, "shard.add", t0, t1, 1)
	}
	return float64(t1.Sub(t0).Nanoseconds()) / 1e3, !sampled, nil
}

// addAtRate is rw-churn's writer: binary Adds of every fresh key at an
// even rate through the window (3,000/s at 1M members and 10 s), on a 1 ms
// ticker, catching up when late. Latency runs from send to ack; the
// ticker's granularity is coarser than an Add. The timed Adds are cut into
// chunks of addChunk, as the other workloads' are, so that every chunk holds
// enough of them for its p99 at any window length.
func (r *runner) addAtRate(tg *target) (series, int, error) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var lat []float64
	added := 0
	rate := float64(len(r.ks.fresh)) / r.cfg.window.Seconds()
	for r.phase.Load() == phaseMeasure {
		due := min(int(time.Since(r.start).Seconds()*rate), len(r.ks.fresh))
		for ; added < due; added++ {
			t0 := time.Now()
			l, timed, err := r.add(added, r.ks.fresh[added], tg.f, tg.clients[1])
			if err != nil {
				return series{}, added, err
			}
			if _, in := r.slice(t0); in && timed {
				lat = append(lat, l)
			}
		}
		<-tick.C
	}
	return chunked(lat, addChunk), added, nil
}

// snapshots runs Save→Load cycles in memory, in spans on a traced run, and
// checks that the last restored filter still holds every member and acked
// Add and answers negatives exactly as the live filter does. Each cycle's
// restored filter borrows the buffer and is dropped before the next Save
// overwrites it. A collection before each cycle keeps the garbage of the
// last from putting a concurrent mark phase into some cycles and not
// others.
func (r *runner) snapshots(f *habf.Sharded, acked [][]byte, o *outcome) error {
	var restored *habf.Sharded
	var buf bytes.Buffer
	for i := 0; i < snapCycles; i++ {
		restored = nil
		buf.Reset()
		runtime.GC()
		r.chk.attempt(1)
		t0 := time.Now()
		err := f.Save(&buf)
		t1 := time.Now()
		if err != nil {
			r.chk.fail(err)
			return err
		}
		g, err := habf.Load(buf.Bytes())
		t2 := time.Now()
		if err != nil {
			r.chk.fail(err)
			return err
		}
		if r.tr != nil {
			r.tr.root(r.sp.name, "snapshot.save", t0, t1, 0)
			r.tr.root(r.sp.name, "snapshot.load", t1, t2, 0)
		}
		restored, o.snapBytes = g, buf.Len()
	}
	r.chk.acked(r.sp.name+" members after restore", restored, r.ks.members)
	r.chk.acked(r.sp.name+" acked adds after restore", restored, acked)
	sample := r.ks.negatives[:min(len(r.ks.negatives), 1<<16)]
	live, back := answer(f, sample), answer(restored, sample)
	r.chk.attempt(len(sample))
	for i := range live {
		if live[i] != back[i] {
			r.chk.fail(fmt.Errorf("%s: negative %d answers %v live but %v restored", r.sp.name, i, live[i], back[i]))
		}
	}
	return nil
}

// traceRig is what a traced run adds beside the workload: the standalone
// filtercore layer, a TCP echo peer for the socket layer, and, for the
// in-process workloads, a binary server over the same filter for the
// server layer.
type traceRig struct {
	layer  *layerSet
	echo   *echoServer
	own    *target // the rig's own server; nil when the workload serves already
	srv    *server.Server
	echoes []*echoClient
}

func newRig(r *runner, tg *target) (g *traceRig, err error) {
	g = &traceRig{srv: tg.srv}
	defer func() {
		if err != nil {
			g.close()
		}
	}()
	if g.layer, err = buildLayer(r.ks); err != nil {
		return nil, err
	}
	if g.echo, err = startEcho(); err != nil {
		return nil, err
	}
	if tg.srv == nil {
		if g.own, err = serve(tg.f, callers); err != nil {
			return nil, err
		}
		g.srv = g.own.srv
	}
	return g, nil
}

func (g *traceRig) replayer(r *runner, tg *target, i int) (*replayer, error) {
	ec, err := dialEcho(g.echo.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	g.echoes = append(g.echoes, ec)
	client := tg.clients
	if g.own != nil {
		client = g.own.clients
	}
	rp := &replayer{
		tr: r.tr, workload: r.sp.name, kind: r.sp.kind, path: pathOf(r.sp.kind), f: tg.f, layer: g.layer,
		client: client[i], echo: ec, chk: r.chk, codec: newCodec(),
		hv: make([]uint64, batchSize), dst: make([]bool, batchSize),
	}
	for id := range rp.groups {
		rp.groups[id].dst = make([]bool, batchSize)
	}
	return rp, nil
}

func (g *traceRig) close() error {
	for _, ec := range g.echoes {
		ec.conn.Close()
	}
	if g.echo != nil {
		g.echo.close()
	}
	if g.own != nil {
		return g.own.close()
	}
	return nil
}
