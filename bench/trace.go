package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	habf "repro"
	"repro/internal/filtercore"
	ihabf "repro/internal/habf"
	"repro/internal/hashes"
	"repro/internal/wire"
)

// A traced run samples one call in sampleEvery. The calling goroutine then
// replays that call's keys through each layer's public function alone, one
// step per layer, each in its own span. Replaying on the caller keeps the
// load at the same number of in-flight calls.
type step int

const (
	stHashes         step = iota // hashes.Base over every key
	stFiltercore                 // standalone per-shard backends, keys grouped by shard
	stShardBatch                 // Sharded.ContainsBatchInto
	stShardContains              // Sharded.Contains per key
	stWireContains               // AppendContains, Decoder.Next, AppendContainsResp per key
	stWireBatch                  // AppendContainsBatch, Decoder.Next, AppendBatchResp
	stSocket                     // TCP echo of the call's request and response frame sizes
	stServerContains             // binary Contains round trip of the first key
	stServerBatch                // binary ContainsBatch round trip of all keys
	nSteps
)

var stepNames = [nSteps]string{
	"hashes", "filtercore", "shard.batch", "shard.contains", "wire.contains",
	"wire.batch", "socket", "server.contains", "server.batch",
}

// callNames name a sampled call's root span by the workload's kind, which
// decides the replay steps on the call's path.
var callNames = [...]string{inproc: "call.inproc", rpcSingle: "call.single", rwChurn: "call.batch"}

const (
	toRoot  step = -1 // the top layer of the call's path, under the call itself
	offPath step = -2 // replayed for its layer metric only
)

// pathOf gives each step's parent on a call of kind k: the layer that calls
// it, toRoot, or offPath.
func pathOf(k kind) [nSteps]step {
	var p [nSteps]step
	for i := range p {
		p[i] = offPath
	}
	shard, wireStep, srv := stShardBatch, stWireBatch, stServerBatch
	if k == rpcSingle {
		shard, wireStep, srv = stShardContains, stWireContains, stServerContains
	}
	p[stHashes], p[stFiltercore] = shard, shard
	if k == inproc {
		p[shard] = toRoot
		return p
	}
	p[srv] = toRoot
	p[stSocket], p[wireStep], p[shard] = srv, srv, srv
	return p
}

// span is one timed interval. The spans of one sampled call share Req, the
// id of the call's root span.
type span struct {
	Workload string `json:"workload"`
	Req      uint64 `json:"req"`
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent"` // 0 for a root
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the tracer started
	End      int64  `json:"end_ns"`
	Keys     int    `json:"keys"`
	OnPath   bool   `json:"on_path"`
}

// tracer holds every span in memory until the run writes them out.
type tracer struct {
	start time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

func (t *tracer) ns(x time.Time) int64 { return x.Sub(t.start).Nanoseconds() }

// root records a span that has no parent, such as one Add or one snapshot.
func (t *tracer) root(workload, name string, start, end time.Time, keys int) {
	id := t.ids.Add(1)
	t.merge([]span{{Workload: workload, Req: id, ID: id, Name: name,
		Start: t.ns(start), End: t.ns(end), Keys: keys, OnPath: true}})
}

func (t *tracer) merge(s []span) {
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

func (t *tracer) of(workload string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Workload == workload {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) write(path string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	t.mu.Lock()
	b, err := json.Marshal(struct {
		Seed  int64  `json:"seed"`
		Spans []span `json:"spans"`
	}{seed, t.spans})
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// layerSet is the filtercore layer built alone: one HABF backend per shard,
// each over the members and negatives that route to that shard, at the
// benchmark's bits per key.
type layerSet struct {
	backends [shards]filtercore.PreparedQuerier
	buildS   []float64
}

// shardOf routes by the top bits of the base hash. It copies
// shard.Set.route, the source of truth, for sets built under
// hashes.BaseSeed, because the shard package does not export its routing.
// The standalone backends are built and probed under this copy, so they stay
// correct if routing changes there; but they then hold other keys than the
// live shards, and filtercore.* stops describing the shard layer's probes.
func shardOf(h uint64) int { return int(h >> (64 - shardBits)) }

func buildLayer(ks keySet) (*layerSet, error) {
	var pos [shards][][]byte
	var neg [shards][]ihabf.WeightedKey
	for _, k := range ks.members {
		id := shardOf(hashes.Base(k))
		pos[id] = append(pos[id], k)
	}
	for i, k := range ks.negatives {
		id := shardOf(hashes.Base(k))
		neg[id] = append(neg[id], ihabf.WeightedKey{Key: k, Cost: ks.costs[i]})
	}
	fc, err := filtercore.ByName("habf")
	if err != nil {
		return nil, err
	}
	ls := &layerSet{}
	for id := range ls.backends {
		t0 := time.Now()
		b, err := fc.Build(pos[id], neg[id], filtercore.BuildConfig{
			TotalBits: uint64(bitsPerKey * len(pos[id])),
			Params:    ihabf.Params{Seed: int64(id + 1)},
		})
		if err != nil {
			return nil, fmt.Errorf("filtercore build of shard %d: %w", id, err)
		}
		ls.buildS = append(ls.buildS, time.Since(t0).Seconds())
		pq, ok := b.(filtercore.PreparedQuerier)
		if !ok {
			return nil, fmt.Errorf("filtercore: backend %s has no batch probe", b.Name())
		}
		ls.backends[id] = pq
	}
	return ls, nil
}

// codec replays the wire layer: encode a request frame, decode it the way
// the server does, and encode the response.
type codec struct {
	src  bytes.Reader
	br   *bufio.Reader
	dec  *wire.Decoder
	req  wire.Request
	out  []byte
	resp []byte
}

func newCodec() *codec {
	c := &codec{}
	c.br = bufio.NewReaderSize(&c.src, 1<<16)
	c.dec = wire.NewDecoder(c.br)
	return c
}

func (c *codec) decode(frame []byte) error {
	c.src.Reset(frame)
	c.br.Reset(&c.src)
	return c.dec.Next(&c.req)
}

func (c *codec) contains(key []byte, present bool) error {
	c.out = wire.AppendContains(c.out[:0], 1, key)
	if err := c.decode(c.out); err != nil {
		return err
	}
	if !bytes.Equal(c.req.Key, key) {
		return fmt.Errorf("wire: contains frame decoded to another key")
	}
	c.resp = wire.AppendContainsResp(c.resp[:0], c.req.ID, present)
	return nil
}

func (c *codec) batch(keys [][]byte, present []bool) error {
	c.out = wire.AppendContainsBatch(c.out[:0], 1, keys)
	if err := c.decode(c.out); err != nil {
		return err
	}
	if len(c.req.Keys) != len(keys) {
		return fmt.Errorf("wire: batch of %d keys decoded to %d", len(keys), len(c.req.Keys))
	}
	c.resp = wire.AppendBatchResp(c.resp[:0], c.req.ID, present)
	return nil
}

// echoServer is the benchmark's own TCP peer for the socket layer. A
// request is an 8-byte header (request and response sizes, little endian)
// and the request payload; the answer is that many response bytes.
type echoServer struct {
	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

const echoMax = 1 << 16

func startEcho() (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("echo listen: %w", err)
	}
	e := &echoServer{ln: ln, conns: make(map[net.Conn]struct{})}
	e.wg.Add(1)
	go e.accept()
	return e, nil
}

func (e *echoServer) accept() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.conns[conn] = struct{}{}
		e.wg.Add(1)
		e.mu.Unlock()
		go e.serve(conn)
	}
}

// serve answers one connection. It reads through a 64 KiB buffer, as the
// binary server does, so a frame costs it the same read calls.
func (e *echoServer) serve(conn net.Conn) {
	defer e.wg.Done()
	defer conn.Close()
	br := bufio.NewReaderSize(conn, echoMax)
	var hdr [8]byte
	buf := make([]byte, echoMax)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n, m := binary.LittleEndian.Uint32(hdr[:4]), binary.LittleEndian.Uint32(hdr[4:])
		if n > echoMax || m > echoMax {
			return
		}
		if _, err := io.ReadFull(br, buf[:n]); err != nil {
			return
		}
		if _, err := conn.Write(buf[:m]); err != nil {
			return
		}
	}
}

// close stops the listener and every connection and waits for their
// goroutines.
func (e *echoServer) close() {
	e.mu.Lock()
	e.closed = true
	e.ln.Close()
	for c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

type echoClient struct {
	conn net.Conn
	buf  []byte
}

func dialEcho(addr string) (*echoClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("echo dial: %w", err)
	}
	return &echoClient{conn: conn, buf: make([]byte, 8+echoMax)}, nil
}

func (c *echoClient) roundTrip(req, resp int) error {
	if req > echoMax || resp > echoMax {
		return fmt.Errorf("echo: frame of %d/%d bytes exceeds %d", req, resp, echoMax)
	}
	binary.LittleEndian.PutUint32(c.buf[:4], uint32(req))
	binary.LittleEndian.PutUint32(c.buf[4:8], uint32(resp))
	if _, err := c.conn.Write(c.buf[:8+req]); err != nil {
		return fmt.Errorf("echo: %w", err)
	}
	if _, err := io.ReadFull(c.conn, c.buf[:resp]); err != nil {
		return fmt.Errorf("echo: %w", err)
	}
	return nil
}

// replayer replays one caller's sampled calls. It belongs to that caller's
// goroutine.
type replayer struct {
	tr       *tracer
	workload string
	kind     kind
	path     [nSteps]step
	f        *habf.Sharded
	layer    *layerSet
	client   *wire.Client
	echo     *echoClient
	chk      *checker
	codec    *codec

	spans  []span
	hv     []uint64
	dst    []bool
	groups [shards]struct {
		keys [][]byte
		hv   []uint64
		pos  []int
		dst  []bool
	}
}

// replay replays a call of keys that started at start, took took, and read
// the probe stream from position base. The in-process steps go over the
// keys reps times, so that a one-key call is timed over as many keys as a
// batch and a span never holds just a clock read.
func (rp *replayer) replay(start time.Time, took time.Duration, keys [][]byte, base int) error {
	n := len(keys)
	reps := max(1, batchSize/n)
	var at [nSteps][2]time.Time

	t := time.Now()
	for r := 0; r < reps; r++ {
		for i, k := range keys {
			rp.hv[i] = hashes.Base(k)
		}
	}
	at[stHashes] = [2]time.Time{t, time.Now()}

	for id := range rp.groups {
		g := &rp.groups[id]
		g.keys, g.hv, g.pos = g.keys[:0], g.hv[:0], g.pos[:0]
	}
	for i, k := range keys {
		g := &rp.groups[shardOf(rp.hv[i])]
		g.keys, g.hv, g.pos = append(g.keys, k), append(g.hv, rp.hv[i]), append(g.pos, i)
	}
	// The standalone backends are touched only by replays, so their lines
	// are cold where the live filter's were just touched by the call. A
	// first, untimed pass puts them on an equal footing with the other
	// replays, which all follow the call on the same keys.
	for pass := 0; pass < 2; pass++ {
		t = time.Now()
		for r := 0; r < reps; r++ {
			for id := range rp.groups {
				if g := &rp.groups[id]; len(g.keys) > 0 {
					rp.layer.backends[id].ContainsBatchInto(g.dst, g.keys, g.hv)
				}
			}
		}
	}
	at[stFiltercore] = [2]time.Time{t, time.Now()}
	for id := range rp.groups {
		g := &rp.groups[id]
		for j, ok := range g.dst[:len(g.keys)] {
			if !ok && (base+g.pos[j])%2 == 1 {
				rp.chk.fail(fmt.Errorf("replay filtercore: false negative at stream position %d", base+g.pos[j]))
			}
		}
	}

	dst := rp.dst[:n]
	t = time.Now()
	for r := 0; r < reps; r++ {
		for i, k := range keys {
			dst[i] = rp.f.Contains(k)
		}
	}
	at[stShardContains] = [2]time.Time{t, time.Now()}
	rp.chk.probes("replay shard.contains", base, dst)

	t = time.Now()
	for r := 0; r < reps; r++ {
		rp.f.ContainsBatchInto(dst, keys)
	}
	at[stShardBatch] = [2]time.Time{t, time.Now()}
	rp.chk.probes("replay shard.batch", base, dst)

	t = time.Now()
	for r := 0; r < reps; r++ {
		for i, k := range keys {
			if err := rp.codec.contains(k, dst[i]); err != nil {
				return err
			}
		}
	}
	at[stWireContains] = [2]time.Time{t, time.Now()}
	single := [2]int{len(rp.codec.out), len(rp.codec.resp)}

	t = time.Now()
	for r := 0; r < reps; r++ {
		if err := rp.codec.batch(keys, dst); err != nil {
			return err
		}
	}
	at[stWireBatch] = [2]time.Time{t, time.Now()}
	frames := [2]int{len(rp.codec.out), len(rp.codec.resp)}
	if rp.kind == rpcSingle {
		frames = single
	}

	t = time.Now()
	if err := rp.echo.roundTrip(frames[0], frames[1]); err != nil {
		return err
	}
	at[stSocket] = [2]time.Time{t, time.Now()}

	t = time.Now()
	ok, err := rp.client.Contains(keys[0])
	at[stServerContains] = [2]time.Time{t, time.Now()}
	if err != nil {
		return fmt.Errorf("replay server.contains: %w", err)
	}
	rp.chk.probes("replay server.contains", base, []bool{ok})

	t = time.Now()
	res, err := rp.client.ContainsBatch(keys)
	at[stServerBatch] = [2]time.Time{t, time.Now()}
	if err != nil {
		return fmt.Errorf("replay server.batch: %w", err)
	}
	rp.chk.probes("replay server.batch", base, res)
	rp.chk.attempt(int(nSteps))

	req := rp.tr.ids.Add(1)
	var ids [nSteps]uint64
	for s := range ids {
		ids[s] = rp.tr.ids.Add(1)
	}
	rp.spans = append(rp.spans, span{Workload: rp.workload, Req: req, ID: req, Name: callNames[rp.kind],
		Start: rp.tr.ns(start), End: rp.tr.ns(start.Add(took)), Keys: n, OnPath: true})
	for s := step(0); s < nSteps; s++ {
		parent := req
		if p := rp.path[s]; p >= 0 {
			parent = ids[p]
		}
		keys := n * reps
		switch s {
		case stSocket, stServerContains:
			keys = 1
		case stServerBatch:
			keys = n
		}
		rp.spans = append(rp.spans, span{Workload: rp.workload, Req: req, ID: ids[s], Parent: parent,
			Name: stepNames[s], Start: rp.tr.ns(at[s][0]), End: rp.tr.ns(at[s][1]), Keys: keys,
			OnPath: rp.path[s] != offPath})
	}
	return nil
}

// ledger turns one workload's spans into its span-derived per-layer
// metrics. A layer's self time is its replay span minus the replay spans of
// the layers it calls; what the call's top on-path replay does not cover
// of the call itself is unattributed. Each metric is the median over
// sampled calls: a span of a few hundred nanoseconds that a preemption or a
// collection lands in would otherwise outweigh thousands of others.
func ledger(spans []span) (map[string]float64, error) {
	type call struct {
		name string
		root float64
		top  float64 // the top on-path replay
		dur  [nSteps]float64
		keys [nSteps]float64
		seen int
	}
	calls := map[uint64]*call{}
	var adds, saves, loads []float64
	byName := map[string]step{}
	for s, name := range stepNames {
		byName[name] = step(s)
	}
	for _, s := range spans {
		d := float64(s.End - s.Start)
		switch s.Name {
		case "shard.add":
			adds = append(adds, d)
			continue
		case "snapshot.save":
			saves = append(saves, d)
			continue
		case "snapshot.load":
			loads = append(loads, d)
			continue
		}
		c := calls[s.Req]
		if c == nil {
			c = &call{}
			calls[s.Req] = c
		}
		if s.Parent == 0 {
			c.name, c.root = s.Name, d
			continue
		}
		st, ok := byName[s.Name]
		if !ok {
			return nil, fmt.Errorf("ledger: unknown span %q", s.Name)
		}
		c.dur[st], c.keys[st] = d, float64(s.Keys)
		c.seen++
		if s.OnPath && s.Parent == s.Req {
			c.top = d
		}
	}
	if len(calls) == 0 || len(adds) == 0 || len(saves) == 0 || len(loads) == 0 {
		return nil, fmt.Errorf("ledger: %d sampled calls, %d add, %d save and %d load spans, want some of each",
			len(calls), len(adds), len(saves), len(loads))
	}
	per := map[string][]float64{}
	for _, c := range calls {
		if c.name == "" || c.seen != int(nSteps) {
			return nil, fmt.Errorf("ledger: a sampled call has %d of %d replay spans", c.seen, nSteps)
		}
		perKey := func(s step) float64 { return c.dur[s] / c.keys[s] }
		// The server's self time: its round trip less the socket and, for as
		// many keys as the round trip carried, the codec and the shard call of
		// the same shape. Batch-sized socket spans pair with the batch round
		// trip.
		srv, wireStep, shard := stServerBatch, stWireBatch, stShardBatch
		if c.name == callNames[rpcSingle] {
			srv, wireStep, shard = stServerContains, stWireContains, stShardContains
		}
		serverSelf := c.dur[srv] - c.dur[stSocket] - c.keys[srv]*(perKey(wireStep)+perKey(shard))
		for name, v := range map[string]float64{
			"hashes.base_ns_per_key":      perKey(stHashes),
			"filtercore.probe_ns_per_key": perKey(stFiltercore),
			"shard.batch_ns_per_key":      perKey(stShardBatch),
			"shard.self_ns_per_key":       (c.dur[stShardBatch] - c.dur[stHashes] - c.dur[stFiltercore]) / c.keys[stShardBatch],
			"shard.contains_ns":           perKey(stShardContains),
			"wire.contains_codec_ns":      perKey(stWireContains),
			"wire.batch_codec_ns_per_key": perKey(stWireBatch),
			"socket.rtt_us":               c.dur[stSocket] / 1e3,
			"server.self_us":              serverSelf / 1e3,
			"trace.unattributed_share":    (c.root - c.top) / c.root,
		} {
			per[name] = append(per[name], v)
		}
	}
	m := map[string]float64{
		"shard.add_ns":     median(adds),
		"snapshot.save_ms": median(saves) / 1e6,
		"snapshot.load_ms": median(loads) / 1e6,
	}
	for name, vs := range per {
		m[name] = median(vs)
	}
	return m, nil
}

// scrapeServer reads the server layer's own counters from its /metrics
// handler. The histogram sums keep whole microseconds per observation, so
// service times under a few microseconds read low.
func scrapeServer(h http.Handler) (map[string]float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", rec.Code)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape /metrics: %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	ratio := func(num, den string) (float64, error) {
		if m[den] == 0 {
			return 0, fmt.Errorf("scrape /metrics: %s is zero", den)
		}
		return m[num] / m[den], nil
	}
	out := map[string]float64{"server.errors": m["habfserved_request_errors_total"]}
	for _, r := range []struct{ name, num, den string }{
		{"server.contains_service_us", "habfserved_binary_contains_duration_seconds_sum", "habfserved_binary_contains_duration_seconds_count"},
		{"server.batch_service_us", "habfserved_binary_batch_duration_seconds_sum", "habfserved_binary_batch_duration_seconds_count"},
		{"server.coalesce_keys_per_batch", "habfserved_coalesce_keys", "habfserved_coalesce_batches"},
	} {
		v, err := ratio(r.num, r.den)
		if err != nil {
			return nil, err
		}
		out[r.name] = v
	}
	out["server.contains_service_us"] *= 1e6
	out["server.batch_service_us"] *= 1e6
	return out, nil
}
