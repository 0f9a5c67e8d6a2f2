// Package server turns a sharded HABF into a network service: an HTTP
// API over *habf.Sharded with transparent request coalescing, so the
// per-chunk lock amortization of ContainsBatch — an in-process win for
// callers that already hold a batch — is also realized for independent
// single-key network callers.
//
// Endpoints (all request/response bodies are JSON unless noted):
//
//	POST /v1/contains        {"key": <base64>}            → {"present": bool}
//	POST /v1/contains_batch  {"keys": [<base64>, ...]}    → {"present": [bool, ...]}
//	POST /v1/add             {"key": <base64>}            → {"ok": true}
//	POST /v1/snapshot        {"path": "..."} (optional)   → {"path": ..., "ms": ...}
//	GET  /v1/snapshot                                     → the snapshot container itself (octet-stream)
//	GET  /v1/epoch                                        → the filter mutation epoch, as decimal text
//	GET  /v1/stats                                        → filter + shard + coalescer stats
//	GET  /metrics                                         → Prometheus text format
//
// /v1/contains and /v1/add also accept Content-Type:
// application/octet-stream with the raw key bytes as the body; raw
// contains requests are answered with a one-byte body, "1" or "0". The
// raw form exists for load generators and latency-sensitive callers that
// want to skip JSON entirely.
//
// Beside HTTP, BinaryServer serves the internal/wire binary protocol on
// a raw TCP listener through the same coalescer and filter — the path
// for single-key callers that can't afford HTTP request framing at all.
//
// The server is the unit of replication. GET /v1/snapshot streams a
// filter-only container (SaveFilters; stamped with the filter's
// mutation epoch in an X-Habf-Epoch header), which loads read-only, GET /v1/epoch is the cheap
// freshness probe a follower polls, and SwapFilter atomically replaces
// the served filter — how a follower that restored a fresher snapshot
// cuts queries over without dropping a request. A follower serves a
// filter-only load, which refuses Adds with habf.ErrReadOnly; the
// server answers such a write with a 307 redirect to Config.Primary,
// keeping the write path single-master.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	habf "repro"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// maxBodyBytes bounds request bodies; a membership key or a batch of
// them is small, so anything larger is a client error, not traffic. It
// matches the binary protocol's per-key ceiling so both request paths
// reject at the same size.
const maxBodyBytes = wire.MaxKeyLen

// errBodyTooLarge rejects oversized request bodies. It must be a
// rejection, never a truncation: a key cut at the body limit would be
// silently queried — or worse, Add-acked — as a different key.
var errBodyTooLarge = errors.New("request body exceeds " + strconv.Itoa(maxBodyBytes) + " bytes")

// Config assembles a Server.
type Config struct {
	// Filter is the sharded filter to serve. Required.
	Filter *habf.Sharded
	// SnapshotPath is the default target for POST /v1/snapshot and for
	// snapshot-on-exit. Empty means snapshot requests must name a path.
	SnapshotPath string
	// Primary is the primary's base URL (e.g. "http://10.0.0.1:8080"),
	// set on a replication follower: a write the read-only filter
	// refuses is redirected there. Without it such a write gets 403.
	Primary string
}

// Server is the HTTP serving layer. Create with New, expose with
// Handler, and Close when done (it drains the coalescer).
type Server struct {
	// filter is behind an atomic pointer so a replication follower can
	// swap in a freshly restored snapshot while requests are in flight;
	// every handler loads it once per request via Filter().
	filter   atomic.Pointer[habf.Sharded]
	co       *Coalescer
	mux      *http.ServeMux
	snapPath string
	primary  string

	// snapMu serializes snapshot writes to the default path so two
	// concurrent /v1/snapshot calls don't interleave their progress
	// reporting (SaveFile itself is already crash-safe under races).
	snapMu sync.Mutex

	reg *metrics.Registry

	mContains      *metrics.Counter
	mContainsBatch *metrics.Counter
	mBatchKeys     *metrics.Counter
	mAdd           *metrics.Counter
	mSnapshots     *metrics.Counter
	mErrors        *metrics.Counter
	hContains      *metrics.Histogram
	hBatchSize     *metrics.Histogram
	hCoalesceSize  *metrics.Histogram

	// Binary-protocol instrumentation (see BinaryServer). Registered
	// unconditionally so scrapes see the series at zero when no binary
	// listener is configured.
	mBinContains *metrics.Counter
	mBinBatch    *metrics.Counter
	mBinAdd      *metrics.Counter
	mBinPing     *metrics.Counter
	hBinContains *metrics.Histogram
	hBinBatch    *metrics.Histogram
	binConns     atomic.Int64
}

// New builds a Server over cfg.Filter and starts its coalescer.
func New(cfg Config) (*Server, error) {
	if cfg.Filter == nil {
		return nil, fmt.Errorf("server: nil Filter")
	}
	s := &Server{
		snapPath: cfg.SnapshotPath,
		primary:  cfg.Primary,
		reg:      metrics.NewRegistry(),
	}
	s.filter.Store(cfg.Filter)
	// The coalescer dispatches through the server, not a pinned filter,
	// so micro-batches formed before a SwapFilter land on the new filter.
	s.co = newCoalescer(serverBatcher{s}, coalesceMaxBatch, coalesceDispatchers)

	s.mContains = s.reg.Counter(`habfserved_requests_total{endpoint="contains"}`, "Requests by endpoint.")
	s.mContainsBatch = s.reg.Counter(`habfserved_requests_total{endpoint="contains_batch"}`, "Requests by endpoint.")
	s.mAdd = s.reg.Counter(`habfserved_requests_total{endpoint="add"}`, "Requests by endpoint.")
	s.mSnapshots = s.reg.Counter(`habfserved_requests_total{endpoint="snapshot"}`, "Requests by endpoint.")
	s.mBatchKeys = s.reg.Counter("habfserved_batch_keys_total", "Keys queried through /v1/contains_batch.")
	s.mErrors = s.reg.Counter("habfserved_request_errors_total", "Requests rejected with a 4xx/5xx status.")
	s.hContains = s.reg.Histogram("habfserved_contains_duration_seconds",
		"End-to-end handler latency of /v1/contains.", metrics.DurationBuckets())
	s.hBatchSize = s.reg.Histogram("habfserved_batch_size_keys",
		"Batch sizes seen by /v1/contains_batch.", metrics.SizeBuckets(1<<16))
	s.hCoalesceSize = s.reg.Histogram("habfserved_coalesce_batch_size_keys",
		"Micro-batch sizes formed by the request coalescer.", metrics.SizeBuckets(1<<12))
	s.co.onBatch = func(n int) { s.hCoalesceSize.Observe(float64(n)) }

	s.mBinContains = s.reg.Counter(`habfserved_requests_total{endpoint="binary_contains"}`, "Requests by endpoint.")
	s.mBinBatch = s.reg.Counter(`habfserved_requests_total{endpoint="binary_contains_batch"}`, "Requests by endpoint.")
	s.mBinAdd = s.reg.Counter(`habfserved_requests_total{endpoint="binary_add"}`, "Requests by endpoint.")
	s.mBinPing = s.reg.Counter(`habfserved_requests_total{endpoint="binary_ping"}`, "Requests by endpoint.")
	s.hBinContains = s.reg.Histogram("habfserved_binary_contains_duration_seconds",
		"Handler latency of binary-protocol contains frames (decode to encode).", metrics.DurationBuckets())
	s.hBinBatch = s.reg.Histogram("habfserved_binary_batch_duration_seconds",
		"Handler latency of binary-protocol contains_batch frames.", metrics.DurationBuckets())
	s.reg.Gauge("habfserved_binary_connections", "Open binary-protocol connections.",
		func() float64 { return float64(s.binConns.Load()) })

	s.reg.Gauge(fmt.Sprintf(`habfserved_backend_info{backend=%q,filter=%q}`, cfg.Filter.Backend(), cfg.Filter.Name()),
		"Constant 1; labels identify the serving filter backend.",
		func() float64 { return 1 })
	s.reg.Gauge("habfserved_filter_epoch", "Filter mutation epoch (Adds + rebuild swaps, summed across shards).",
		func() float64 { return float64(s.Filter().Epoch()) })
	s.reg.Gauge("habfserved_filter_keys", "Positive keys currently represented.",
		func() float64 { return float64(s.Filter().Stats().Keys) })
	s.reg.Gauge("habfserved_filter_size_bits", "Query-time footprint in bits.",
		func() float64 { return float64(s.Filter().SizeBits()) })
	s.reg.Gauge("habfserved_filter_shards", "Shard count.",
		func() float64 { return float64(s.Filter().NumShards()) })
	s.reg.Gauge("habfserved_filter_rebuilds", "Completed background rebuilds.",
		func() float64 { return float64(s.Filter().Stats().Rebuilds) })
	s.reg.Gauge("habfserved_filter_pending_keys", "Static-backend Adds buffered outside the shard filters until their shard's next rebuild.",
		func() float64 { return float64(s.Filter().Stats().Pending) })
	s.reg.Gauge("habfserved_coalesce_batches", "Micro-batches dispatched.",
		func() float64 { return float64(s.co.Stats().Batches) })
	s.reg.Gauge("habfserved_coalesce_keys", "Keys answered through micro-batches.",
		func() float64 { return float64(s.co.Stats().Keys) })

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/contains", s.handleContains)
	mux.HandleFunc("/v1/contains_batch", s.handleContainsBatch)
	mux.HandleFunc("/v1/add", s.handleAdd)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/v1/epoch", s.handleEpoch)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Handler returns the root handler for use with an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Filter returns the currently served filter. Handlers load it once per
// request, so a concurrent SwapFilter gives each request a consistent
// filter without ever blocking one.
func (s *Server) Filter() *habf.Sharded { return s.filter.Load() }

// SwapFilter atomically replaces the served filter and returns the
// previous one. In-flight requests finish against whichever filter they
// loaded; new requests (and coalesced micro-batches formed after the
// swap) see next. The backends must match — swapping a follower onto a
// different filter family mid-serve would invalidate the registered
// backend metrics and every client's expectations about tuning.
func (s *Server) SwapFilter(next *habf.Sharded) (*habf.Sharded, error) {
	if next == nil {
		return nil, fmt.Errorf("server: nil filter")
	}
	if cur := s.Filter(); cur.Backend() != next.Backend() {
		return nil, fmt.Errorf("server: cannot swap backend %q in over %q", next.Backend(), cur.Backend())
	}
	return s.filter.Swap(next), nil
}

// Metrics exposes the server's registry so the daemon can register
// process-level series beside the built-in ones (replication lag,
// resync counters in follower mode).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// serverBatcher adapts the server's swappable filter to the coalescer's
// Batcher interface: every dispatch resolves the filter at call time.
type serverBatcher struct{ s *Server }

func (b serverBatcher) Contains(key []byte) bool { return b.s.Filter().Contains(key) }
func (b serverBatcher) ContainsBatchInto(dst []bool, keys [][]byte) {
	b.s.Filter().ContainsBatchInto(dst, keys)
}

// Coalescer exposes the coalescing layer (stats, direct benchmarking).
func (s *Server) Coalescer() *Coalescer { return s.co }

// Close drains the coalescing layer. Call after the http.Server has
// stopped accepting requests (e.g. via Shutdown); handlers still running
// during the drain keep getting correct answers on the direct path.
func (s *Server) Close() { s.co.Close() }

// Snapshot writes the filter's current state to path (or the configured
// default when path is empty) via the crash-safe SaveFile.
func (s *Server) Snapshot(path string) (string, time.Duration, error) {
	if path == "" {
		path = s.snapPath
	}
	if path == "" {
		return "", 0, fmt.Errorf("server: no snapshot path configured")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	start := time.Now()
	if err := s.Filter().SaveFile(path); err != nil {
		return "", 0, err
	}
	return path, time.Since(start), nil
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.mErrors.Inc()
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// failErr maps a request-decode error to its status: 413 for oversized
// bodies, 400 for everything else malformed.
func (s *Server) failErr(w http.ResponseWriter, endpoint string, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, errBodyTooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	s.fail(w, code, "%s: %v", endpoint, err)
}

// readBody reads a request body of at most maxBodyBytes. It reads one
// byte past the limit so an oversized body is detected and rejected
// rather than silently truncated to a prefix.
func readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxBodyBytes {
		return nil, errBodyTooLarge
	}
	return body, nil
}

// rawRequest reports whether the request declares a raw octet-stream
// body. The Content-Type is parsed as a media type, so parameterized
// forms ("application/octet-stream; charset=binary") select the raw
// path too; a present-but-unparseable header is an error, not a silent
// fall-through to JSON.
func rawRequest(r *http.Request) (bool, error) {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return false, nil
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false, fmt.Errorf("bad Content-Type %q: %v", ct, err)
	}
	return mt == "application/octet-stream", nil
}

// readKey extracts the key from a contains/add request: raw bytes for
// application/octet-stream, else JSON {"key": base64}. Empty keys are
// rejected here so /v1/contains and /v1/add agree — an empty-bodied
// contains must not get a confident answer for the empty key.
func readKey(r *http.Request) ([]byte, bool, error) {
	raw, err := rawRequest(r)
	if err != nil {
		return nil, false, err
	}
	body, err := readBody(r)
	if err != nil {
		return nil, false, err
	}
	key := body
	if !raw {
		var req struct {
			Key []byte `json:"key"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, false, fmt.Errorf("bad JSON body: %w", err)
		}
		if req.Key == nil {
			return nil, false, fmt.Errorf(`missing "key"`)
		}
		key = req.Key
	}
	if len(key) == 0 {
		return nil, raw, errors.New("empty key")
	}
	return key, raw, nil
}

func (s *Server) handleContains(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	start := time.Now()
	key, raw, err := readKey(r)
	if err != nil {
		s.failErr(w, "contains", err)
		return
	}
	present := s.co.Contains(key)
	s.mContains.Inc()
	if raw {
		if present {
			io.WriteString(w, "1")
		} else {
			io.WriteString(w, "0")
		}
	} else {
		s.writeJSON(w, map[string]bool{"present": present})
	}
	s.hContains.ObserveDuration(time.Since(start))
}

func (s *Server) handleContainsBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := readBody(r)
	if err != nil {
		s.failErr(w, "contains_batch", err)
		return
	}
	var req struct {
		Keys [][]byte `json:"keys"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		s.fail(w, http.StatusBadRequest, "contains_batch: bad JSON body: %v", err)
		return
	}
	if len(req.Keys) == 0 {
		s.fail(w, http.StatusBadRequest, `contains_batch: missing "keys"`)
		return
	}
	for i, k := range req.Keys {
		if len(k) == 0 {
			s.fail(w, http.StatusBadRequest, "contains_batch: empty key at index %d", i)
			return
		}
	}
	pb := resultBufPool.Get().(*[]bool)
	if cap(*pb) < len(req.Keys) {
		*pb = make([]bool, len(req.Keys))
	}
	present := (*pb)[:len(req.Keys)]
	s.Filter().ContainsBatchInto(present, req.Keys)
	s.mContainsBatch.Inc()
	s.mBatchKeys.Add(uint64(len(req.Keys)))
	s.hBatchSize.Observe(float64(len(req.Keys)))
	s.writeJSON(w, map[string][]bool{"present": present})
	// writeJSON is synchronous, so the buffer is free again here. The
	// pool holds *[]bool and the same pointer rides back in, keeping the
	// round trip allocation-free.
	resultBufPool.Put(pb)
}

// resultBufPool recycles batch result slices across HTTP requests. A
// buffer is owned from Get to Put; nothing may retain it past the
// response write.
var resultBufPool = sync.Pool{New: func() any { return new([]bool) }}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	key, raw, err := readKey(r)
	if err != nil {
		s.failErr(w, "add", err)
		return
	}
	if err := s.Filter().Add(key); err != nil {
		// A follower's filter is read-only: the next resync would
		// overwrite any local write. Point the writer at the primary;
		// 307 preserves method and body, so a client that follows
		// redirects retries the identical POST there.
		if errors.Is(err, habf.ErrReadOnly) && s.primary != "" {
			s.mErrors.Inc()
			w.Header().Set("Location", strings.TrimSuffix(s.primary, "/")+"/v1/add")
			http.Error(w, "read-only follower: add at the primary", http.StatusTemporaryRedirect)
			return
		}
		s.fail(w, http.StatusForbidden, "add: %v", err)
		return
	}
	s.mAdd.Inc()
	if raw {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.writeJSON(w, map[string]bool{"ok": true})
}

// statsResponse is the /v1/stats document.
type statsResponse struct {
	Name     string           `json:"name"`
	Backend  string           `json:"backend"`
	Tuning   string           `json:"tuning"`
	Role     string           `json:"role"`
	Primary  string           `json:"primary,omitempty"`
	Epoch    uint64           `json:"epoch"`
	Keys     uint64           `json:"keys"`
	Added    uint64           `json:"added"`
	Pending  uint64           `json:"pending"`
	Rebuilds uint64           `json:"rebuilds"`
	SizeBits uint64           `json:"size_bits"`
	Shards   []habf.ShardInfo `json:"shards"`
	Coalesce CoalesceStats    `json:"coalesce"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	f := s.Filter()
	st := f.Stats()
	role := "primary"
	if st.ReadOnly {
		role = "follower"
	}
	s.writeJSON(w, statsResponse{
		Name:     f.Name(),
		Backend:  f.Backend(),
		Tuning:   f.Tuning(),
		Role:     role,
		Primary:  s.primary,
		Epoch:    f.Epoch(),
		Keys:     st.Keys,
		Added:    st.Added,
		Pending:  st.Pending,
		Rebuilds: st.Rebuilds,
		SizeBits: st.SizeBits,
		Shards:   f.ShardInfos(),
		Coalesce: s.co.Stats(),
	})
}

// handleSnapshot serves two verbs on one path: POST writes a crash-safe
// checkpoint to a server-side file (the operator form), GET streams the
// same container to the caller (the replication form — a follower's
// bootstrap and resync both ride it).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		s.handleSnapshotDownload(w)
		return
	}
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "GET or POST required")
		return
	}
	var req struct {
		Path string `json:"path"`
	}
	if r.ContentLength != 0 {
		body, err := readBody(r)
		if err != nil {
			s.failErr(w, "snapshot", err)
			return
		}
		if err := json.Unmarshal(body, &req); err != nil {
			s.fail(w, http.StatusBadRequest, "snapshot: bad JSON body: %v", err)
			return
		}
	}
	if req.Path == "" && s.snapPath == "" {
		s.fail(w, http.StatusBadRequest, "snapshot: no path given and no default configured")
		return
	}
	path, took, err := s.Snapshot(req.Path)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	s.mSnapshots.Inc()
	s.writeJSON(w, map[string]any{
		"path": path,
		"ms":   float64(took.Microseconds()) / 1e3,
	})
}

// handleSnapshotDownload streams the filter's serving state as a
// filter-only snapshot container (SaveFilters), so resync bytes stay
// the size of the filter; the receiver restores it read-only with
// habf.Load. The X-Habf-Epoch header carries
// the filter's mutation epoch sampled before framing begins: writes
// that land mid-stream may or may not be captured, so the header is the
// conservative "at least this fresh" stamp a follower records as its
// synced epoch (if the primary has since moved past it, the next poll
// triggers another sync — never a false "up to date").
func (s *Server) handleSnapshotDownload(w http.ResponseWriter) {
	f := s.Filter()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Habf-Epoch", strconv.FormatUint(f.Epoch(), 10))
	w.Header().Set("X-Habf-Backend", f.Backend())
	if err := f.SaveFilters(w); err != nil {
		// Headers are gone; all we can do is count it and cut the body
		// short so the client's container checksum fails loudly.
		s.mErrors.Inc()
		return
	}
	s.mSnapshots.Inc()
}

// handleEpoch answers the filter's mutation epoch as decimal text — the
// smallest possible freshness probe, cheap enough for every follower
// to poll at high frequency.
func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, strconv.FormatUint(s.Filter().Epoch(), 10))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// An encode failure is a served error like any other 5xx and must
		// show up in the error counter, not vanish from the metrics.
		s.fail(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}
