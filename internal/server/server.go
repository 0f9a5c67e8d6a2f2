// Package server turns a sharded HABF into a network service: an HTTP
// API and a binary protocol over one *habf.Sharded. Both transports are
// codecs around one request core, a function per operation (contains,
// containsBatch, add, snapshot) that loads the served filter once,
// answers on the caller's goroutine and counts the request. Decoding,
// timing, encoding and the status an error maps to stay with the
// transport.
//
// Endpoints (all request/response bodies are JSON unless noted):
//
//	POST /v1/contains        {"key": <base64>}            → {"present": bool}
//	POST /v1/contains_batch  {"keys": [<base64>, ...]}    → {"present": [bool, ...]}
//	POST /v1/add             {"key": <base64>}            → {"ok": true}
//	POST /v1/snapshot        (no body, or {})             → {"path": ..., "ms": ...}
//	GET  /v1/snapshot                                     → the snapshot container itself (octet-stream)
//	GET  /v1/epoch                                        → the filter mutation epoch, as decimal text
//	GET  /v1/stats                                        → filter + shard stats
//	GET  /metrics                                         → Prometheus text format
//
// /v1/contains and /v1/add also accept Content-Type:
// application/octet-stream with the raw key bytes as the body; raw
// contains requests are answered with a one-byte body, "1" or "0". The
// raw form exists for load generators and latency-sensitive callers that
// want to skip JSON entirely.
//
// Beside HTTP, BinaryServer serves the internal/wire binary protocol on
// a raw TCP listener over the same filter — the path for single-key
// callers that can't afford HTTP request framing at all.
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
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"slices"
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
// reject at the same size. A batch is also capped at wire.MaxBatchKeys
// keys, the binary protocol's batch ceiling.
const maxBodyBytes = wire.MaxKeyLen

// errBodyTooLarge rejects oversized request bodies. It must be a
// rejection, never a truncation: a key cut at the body limit would be
// silently queried — or worse, Add-acked — as a different key.
var errBodyTooLarge = errors.New("request body exceeds " + strconv.Itoa(maxBodyBytes) + " bytes")

// Config assembles a Server.
type Config struct {
	// Filter is the sharded filter to serve. Required.
	Filter *habf.Sharded
	// SnapshotPath is the only file POST /v1/snapshot and
	// snapshot-on-exit write; clients cannot name another. Empty disables
	// POST /v1/snapshot.
	SnapshotPath string
	// Primary is the primary's base URL (e.g. "http://10.0.0.1:8080"),
	// set on a replication follower: a write the read-only filter
	// refuses is redirected there. Without it such a write gets 403.
	Primary string
}

// Server is the HTTP serving layer. Create with New and expose with
// Handler.
type Server struct {
	// filter is behind an atomic pointer so a replication follower can
	// swap in a freshly restored snapshot while requests are in flight;
	// every handler loads it once per request via Filter().
	filter   atomic.Pointer[habf.Sharded]
	mux      *http.ServeMux
	snapPath string
	primary  string

	// snapMu serializes snapshot writes to snapPath so two
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

// New builds a Server over cfg.Filter. It starts no goroutine.
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

	for _, c := range []struct {
		endpoint string
		counter  **metrics.Counter
	}{
		{"contains", &s.mContains}, {"contains_batch", &s.mContainsBatch}, {"add", &s.mAdd}, {"snapshot", &s.mSnapshots},
		{"binary_contains", &s.mBinContains}, {"binary_contains_batch", &s.mBinBatch}, {"binary_add", &s.mBinAdd}, {"binary_ping", &s.mBinPing},
	} {
		*c.counter = s.reg.Counter(`habfserved_requests_total{endpoint="`+c.endpoint+`"}`, "Requests by endpoint.")
	}
	s.mBatchKeys = s.reg.Counter("habfserved_batch_keys_total", "Keys queried through HTTP and binary batches.")
	s.mErrors = s.reg.Counter("habfserved_request_errors_total", "Requests rejected with a 4xx/5xx status.")
	s.hContains = s.reg.Histogram("habfserved_contains_duration_seconds",
		"End-to-end handler latency of /v1/contains.", metrics.DurationBuckets())
	s.hBatchSize = s.reg.Histogram("habfserved_batch_size_keys",
		"Batch sizes seen by HTTP and binary batches.", metrics.SizeBuckets(1<<16))
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
	// The two coalesce series are deprecated. Every single-key query is
	// its own batch of one, so both read the single-key contains answered
	// over HTTP and binary, and their ratio reads 1.
	singles := func() float64 { return float64(s.mContains.Value() + s.mBinContains.Value()) }
	s.reg.Gauge("habfserved_coalesce_batches", "Deprecated: single-key contains answered (HTTP and binary).", singles)
	s.reg.Gauge("habfserved_coalesce_keys", "Deprecated: single-key contains answered (HTTP and binary).", singles)

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/contains", s.only(s.handleContains, http.MethodPost))
	mux.HandleFunc("/v1/contains_batch", s.only(s.handleContainsBatch, http.MethodPost))
	mux.HandleFunc("/v1/add", s.only(s.handleAdd, http.MethodPost))
	mux.HandleFunc("/v1/stats", s.only(s.handleStats, http.MethodGet))
	mux.HandleFunc("/v1/snapshot", s.only(s.handleSnapshot, http.MethodGet, http.MethodPost))
	mux.HandleFunc("/v1/epoch", s.only(s.handleEpoch, http.MethodGet))
	mux.HandleFunc("/metrics", s.only(s.handleMetrics, http.MethodGet))
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
// loaded; new requests see next. The backends must match — swapping a
// follower onto a different filter family mid-serve would invalidate
// the registered backend metrics and every client's expectations about
// tuning.
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

// Close does nothing: the server starts no goroutine and holds nothing
// to release. It is safe to call any number of times.
func (s *Server) Close() {}

// Snapshot writes the filter's current state to Config.SnapshotPath via
// the crash-safe SaveFile and returns that path.
func (s *Server) Snapshot() (string, time.Duration, error) {
	if s.snapPath == "" {
		return "", 0, fmt.Errorf("server: %w", errNoSnapshotPath)
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	start := time.Now()
	if err := s.Filter().SaveFile(s.snapPath); err != nil {
		return "", 0, err
	}
	return s.snapPath, time.Since(start), nil
}

// errNoSnapshotPath refuses a snapshot on a server without
// Config.SnapshotPath.
var errNoSnapshotPath = errors.New("no snapshot path configured")

// followerError refuses a write on a read-only follower that knows its
// primary, which is where the write belongs.
type followerError struct{ primary string }

func (e *followerError) Error() string { return "read-only follower: add at the primary " + e.primary }

func (s *Server) contains(key []byte, requests *metrics.Counter) bool {
	present := s.Filter().Contains(key)
	requests.Inc()
	return present
}

// containsBatch answers keys into dst, regrown if it is short, and
// returns dst[:len(keys)].
func (s *Server) containsBatch(dst []bool, keys [][]byte, requests *metrics.Counter) []bool {
	if cap(dst) < len(keys) {
		dst = make([]bool, len(keys))
	}
	dst = dst[:len(keys)]
	s.Filter().ContainsBatchInto(dst, keys)
	requests.Inc()
	s.mBatchKeys.Add(uint64(len(keys)))
	s.hBatchSize.Observe(float64(len(keys)))
	return dst
}

// add adds key. A follower's filter is read-only, since its next resync
// would overwrite a local write; with a primary configured, the refusal
// is a *followerError.
func (s *Server) add(key []byte, requests *metrics.Counter) error {
	if err := s.Filter().Add(key); err != nil {
		if errors.Is(err, habf.ErrReadOnly) && s.primary != "" {
			return &followerError{s.primary}
		}
		return err
	}
	requests.Inc()
	return nil
}

// snapshot is POST /v1/snapshot's Snapshot, counted when it succeeds.
func (s *Server) snapshot() (string, time.Duration, error) {
	path, took, err := s.Snapshot()
	if err == nil {
		s.mSnapshots.Inc()
	}
	return path, took, err
}

// only answers a request whose method is one of methods with h, and
// any other with a 405 that counts as a request error.
func (s *Server) only(h http.HandlerFunc, methods ...string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !slices.Contains(methods, r.Method) {
			s.fail(w, http.StatusMethodNotAllowed, "%s required", strings.Join(methods, " or "))
			return
		}
		h(w, r)
	}
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
// rather than silently truncated to a prefix. A bytes.Buffer doubles as
// it grows, so a body of megabytes costs about twice its size in
// allocations, where io.ReadAll's gentler growth costs five times.
func readBody(r *http.Request) ([]byte, error) {
	var body bytes.Buffer
	if _, err := body.ReadFrom(io.LimitReader(r.Body, maxBodyBytes+1)); err != nil {
		return nil, err
	}
	if body.Len() > maxBodyBytes {
		return nil, errBodyTooLarge
	}
	return body.Bytes(), nil
}

// overCap reports whether the "keys" array of a /v1/contains_batch
// body holds more than wire.MaxBatchKeys keys. It counts them without
// decoding any, so an oversized batch is refused before its keys cost
// an allocation each. A body with fewer commas than the cap cannot hold
// such an array and is not scanned; a body that is not valid JSON is
// not over the cap, and decoding it reports the error.
func overCap(body []byte) bool {
	if bytes.Count(body, []byte{','}) < wire.MaxBatchKeys {
		return false
	}
	var count struct {
		Keys keyCount `json:"keys"`
	}
	return json.Unmarshal(body, &count) == nil && count.Keys > wire.MaxBatchKeys
}

// keyCount decodes a JSON array as its element count, and any other
// value as 0.
type keyCount int

// UnmarshalJSON counts b, a JSON value json has already validated.
func (n *keyCount) UnmarshalJSON(b []byte) error {
	*n = keyCount(arrayLen(b))
	return nil
}

// arrayLen counts the top-level elements of b, a valid JSON value, if
// it is an array, and returns 0 if it is not.
func arrayLen(b []byte) int {
	if b[0] != '[' || bytes.TrimLeft(b[1:], " \t\r\n")[0] == ']' {
		return 0
	}
	n, depth, inString := 1, 0, false
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case inString:
			if c == '\\' {
				i++ // skip the escaped byte, which may be a quote
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == ',' && depth == 1:
			n++
		}
	}
	return n
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
	start := time.Now()
	key, raw, err := readKey(r)
	if err != nil {
		s.failErr(w, "contains", err)
		return
	}
	switch present := s.contains(key, s.mContains); {
	case !raw:
		s.writeJSON(w, map[string]bool{"present": present})
	case present:
		io.WriteString(w, "1")
	default:
		io.WriteString(w, "0")
	}
	s.hContains.ObserveDuration(time.Since(start))
}

func (s *Server) handleContainsBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		s.failErr(w, "contains_batch", err)
		return
	}
	if overCap(body) {
		s.fail(w, http.StatusRequestEntityTooLarge,
			"contains_batch: more keys than the batch cap of %d", wire.MaxBatchKeys)
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
	s.writeJSON(w, map[string][]bool{"present": s.containsBatch(nil, req.Keys, s.mContainsBatch)})
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	key, raw, err := readKey(r)
	if err != nil {
		s.failErr(w, "add", err)
		return
	}
	var follower *followerError
	switch err := s.add(key, s.mAdd); {
	case errors.As(err, &follower):
		// 307 preserves method and body, so a client that follows
		// redirects retries the identical POST at the primary.
		w.Header().Set("Location", strings.TrimSuffix(follower.primary, "/")+"/v1/add")
		s.fail(w, http.StatusTemporaryRedirect, "read-only follower: add at the primary")
	case err != nil:
		s.fail(w, http.StatusForbidden, "add: %v", err)
	case raw:
		w.WriteHeader(http.StatusNoContent)
	default:
		s.writeJSON(w, map[string]bool{"ok": true})
	}
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
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
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
	})
}

// handleSnapshot serves two verbs on one path: POST writes a crash-safe
// checkpoint to the operator's Config.SnapshotPath, GET streams the
// filter to the caller (the replication form — a follower's bootstrap
// and resync both ride it). POST takes no parameters: a body naming any
// field, "path" included, is refused, so a client that can reach the
// port cannot make the server write anywhere else.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		s.handleSnapshotDownload(w)
		return
	}
	if r.ContentLength != 0 {
		body, err := readBody(r)
		if err != nil {
			s.failErr(w, "snapshot", err)
			return
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			s.fail(w, http.StatusBadRequest, "snapshot: bad JSON body: %v", err)
			return
		}
		if len(fields) != 0 {
			s.fail(w, http.StatusBadRequest, "snapshot: the body takes no fields; the server writes only its configured snapshot path")
			return
		}
	}
	path, took, err := s.snapshot()
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, errNoSnapshotPath) {
			code, err = http.StatusBadRequest, errNoSnapshotPath
		}
		s.fail(w, code, "snapshot: %v", err)
		return
	}
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
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, strconv.FormatUint(s.Filter().Epoch(), 10))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
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
