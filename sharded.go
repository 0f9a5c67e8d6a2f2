package habf

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/filtercore"
	"repro/internal/shard"
	"repro/internal/snapshot"
)

// Sharded is an HABF partitioned across N independent shards by
// fingerprint-prefix routing — the serving-layer form of the filter.
//
// Where a plain *HABF requires external synchronization between Add and
// readers, a *Sharded is safe for fully concurrent use: any number of
// goroutines may call Contains, ContainsBatch and Add with no locking.
// Shards build in parallel at construction; Add takes only the owning
// shard's lock; and once a shard accumulates post-construction Adds past
// the rebuild threshold it is re-optimized in the background and swapped
// in atomically while every other shard keeps serving.
type Sharded struct {
	set *shard.Set
}

var _ Filter = (*Sharded)(nil)

// ShardedOption customizes NewSharded beyond its defaults (8 shards, 2%
// rebuild threshold, the paper's filter parameters per shard).
type ShardedOption func(*shard.Config)

// WithShards sets the shard count (rounded up to a power of two).
func WithShards(n int) ShardedOption {
	return func(c *shard.Config) { c.Shards = n }
}

// WithRebuildThreshold sets the fraction of post-build Adds (relative to
// the keys present at the last build) that triggers a background rebuild
// of a shard. Pass a negative value to disable background rebuilds.
func WithRebuildThreshold(t float64) ShardedOption {
	return func(c *shard.Config) { c.RebuildThreshold = t }
}

// WithShardFilterOptions applies per-filter Options (WithK, WithSeed,
// WithCellBits, ...) to every shard's construction parameters.
func WithShardFilterOptions(opts ...Option) ShardedOption {
	return func(c *shard.Config) {
		for _, o := range opts {
			o(&c.Params)
		}
	}
}

// WithFastShards builds every shard as an f-HABF (double hashing), for
// workloads where construction and rebuild speed dominate.
func WithFastShards() ShardedOption {
	return func(c *shard.Config) { c.Params.Fast = true }
}

// WithBackend selects the filter family every shard is built with, by
// registry name — see Backends for what is available. The default is
// "habf", the paper's cost-aware filter; "bloom" serves the standard
// Bloom baseline (mutable, cost-oblivious), "wbf" the Weighted Bloom
// baseline (mutable and cost-aware: costly negatives get extra hash
// positions), "xor" (Xor filter) and "phbf" (partitioned hashing) the
// static baselines, and "lbf", "slbf" and "adabf" the learned ones
// (Learned, Sandwiched and Adaptive Learned Bloom). The static and
// learned backends buffer Adds as pending — still answered with zero
// false negatives — until a background rebuild absorbs them. Every
// backend rides the same sharding, batching, snapshot and serving
// machinery.
func WithBackend(name string) ShardedOption {
	return func(c *shard.Config) { c.Backend = name }
}

// Backends returns the names of every registered filter backend, sorted
// — the valid inputs to WithBackend.
func Backends() []string { return filtercore.Names() }

// WithTuning applies backend tuning knobs, each argument a "k=v" or
// "k=v,k=v" string validated against the selected backend's schema (see
// the README's Tuning section for every backend's knob table). Knobs
// left unset keep their defaults; unknown knobs, duplicates and
// out-of-bounds values make NewSharded fail. The effective knob set is
// durable: snapshots persist it and a restore rebuilds and reports it.
// For the "habf" backend the knobs and the legacy WithK/WithCellBits
// options configure the same fields — a set knob wins.
func WithTuning(kv ...string) ShardedOption {
	return func(c *shard.Config) {
		for _, s := range kv {
			if s == "" {
				continue
			}
			if c.Tuning != "" {
				c.Tuning += ","
			}
			c.Tuning += s
		}
	}
}

// Tuning returns the effective knob set in canonical form — every knob
// of the backend's schema with its explicit or default value, sorted,
// "k=v,k=v". Snapshots persist it (when non-default) and /v1/stats
// reports it.
func (s *Sharded) Tuning() string { return s.set.Tuning() }

// ParseTuning validates a tuning string against a backend's knob schema
// and returns its canonical full rendering — what Sharded.Tuning on a
// set built with those knobs reports. Operational surfaces use it to
// compare a requested tuning against a restored snapshot's without
// building anything.
func ParseTuning(backend, tuning string) (string, error) {
	f, err := filtercore.ByName(backend)
	if err != nil {
		return "", fmt.Errorf("habf: %w", err)
	}
	t, err := f.ParseTuning(tuning)
	if err != nil {
		return "", fmt.Errorf("habf: %w", err)
	}
	return t.String(), nil
}

// NewSharded builds a sharded HABF over positives within totalBits of
// memory, splitting the budget across shards in proportion to their key
// share. Negatives are routed to the shard their colliding positives
// live in, so per-shard TPJO sees exactly the conflicts it can fix.
//
// The set keeps the key slices of positives and negatives (not copies)
// for its background rebuilds, so the caller must not modify them
// afterwards. Keys passed to Add are copied.
func NewSharded(positives [][]byte, negatives []WeightedKey, totalBits uint64, opts ...ShardedOption) (*Sharded, error) {
	cfg := shard.Config{TotalBits: totalBits}
	for _, o := range opts {
		o(&cfg)
	}
	set, err := shard.New(positives, negatives, cfg)
	if err != nil {
		return nil, fmt.Errorf("habf: %w", err)
	}
	return &Sharded{set: set}, nil
}

// Contains reports whether key may be a member (no false negatives).
// Safe for any number of concurrent callers, including concurrent Adds.
func (s *Sharded) Contains(key []byte) bool { return s.set.Contains(key) }

// ContainsBatch answers one result per key, in order. Keys are grouped by
// shard so each shard's lock is taken once per batch and per-call setup
// is amortized across the group — the preferred query path for serving
// loops that already hold a batch of requests.
func (s *Sharded) ContainsBatch(keys [][]byte) []bool { return s.set.ContainsBatch(keys) }

// ContainsBatchInto is ContainsBatch writing into a caller-owned result
// slice: dst[i] answers keys[i], and len(dst) must be at least
// len(keys). It allocates nothing in steady state, so serving loops that
// reuse a result buffer across batches query with zero garbage. The
// slice is fully overwritten in [0, len(keys)) and not retained.
func (s *Sharded) ContainsBatchInto(dst []bool, keys [][]byte) { s.set.ContainsBatchInto(dst, keys) }

// ErrReadOnly is what Add returns on a filter loaded from a filter-only
// snapshot (SaveFilters, a follower's download, or any file written
// before snapshots carried keys): it holds no keys to rebuild a shard
// from, so it answers queries but takes no writes.
var ErrReadOnly = shard.ErrReadOnly

// Add inserts a key, locking only the owning shard. The key is queryable
// as soon as Add returns, and the zero-false-negative guarantee holds
// across any background rebuilds it may trigger. Add keeps a copy of
// key, so the caller may reuse the slice. On a read-only filter Add
// returns ErrReadOnly and changes nothing; otherwise it returns nil.
func (s *Sharded) Add(key []byte) error { return s.set.Add(key) }

// Name identifies the filter variant, e.g. "Sharded[8×HABF]".
func (s *Sharded) Name() string { return s.set.Name() }

// SizeBits returns the summed query-time footprint of every shard.
func (s *Sharded) SizeBits() uint64 { return s.set.SizeBits() }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return s.set.NumShards() }

// Epoch returns the filter's mutation epoch — a counter that advances
// on every Add and background rebuild swap, summed across shards.
// Replication uses it as the freshness signal: a follower that restored
// a snapshot taken at epoch E is up to date exactly while the primary
// still reports E.
func (s *Sharded) Epoch() uint64 { return s.set.Epoch() }

// Backend returns the registry name of the filter backend every shard
// uses ("habf", "bloom", "xor", ...).
func (s *Sharded) Backend() string { return s.set.Backend() }

// WaitRebuilds blocks until in-flight background rebuilds finish.
// Intended for tests and orderly shutdown; serving paths never need it.
func (s *Sharded) WaitRebuilds() { s.set.WaitRebuilds() }

// ShardStats is a point-in-time summary across shards.
type ShardStats = shard.Stats

// Stats snapshots per-shard totals (keys, pending Adds, rebuilds, size).
func (s *Sharded) Stats() ShardStats { return s.set.Stats() }

// ShardInfo is the per-shard detail behind Stats (keys, drift, mutation
// epoch, rebuild state) — what a serving daemon's stats endpoint
// reports per shard.
type ShardInfo = shard.ShardInfo

// ShardInfos samples every shard one at a time; totals are approximate
// under concurrent writes.
func (s *Sharded) ShardInfos() []ShardInfo { return s.set.ShardInfos() }

// Save writes a full snapshot of the filter to w: a versioned,
// checksummed container (magic, per-shard CRC32C frames, footer with
// offsets) holding each shard's filter in its wire format and, beside
// it, the keys the shard rebuilds from — its members, its negatives
// with their costs, and how many members its filter was built from.
// Load brings back a filter that answers, takes Adds and rebuilds on
// drift exactly like the one saved. Save coexists with live traffic —
// readers are never blocked, an Add stalls only while its own shard is
// being captured, and background rebuilds land before or after their
// shard's capture — so every key whose Add returned before Save was
// called is captured; keys added concurrently may or may not be.
// Frames stream to w one shard at a time, so Save's memory overhead is
// about one shard's filter and keys, not the set's. The keys make a
// full snapshot much larger than the filter alone — a 20-byte member
// costs 24 bytes and a 20-byte negative 32 — see SaveFilters. A
// read-only filter holds no keys, so Save of it writes the filter-only
// form, which loads read-only again.
func (s *Sharded) Save(w io.Writer) error {
	if err := s.set.WriteSnapshot(w, true); err != nil {
		return fmt.Errorf("habf: save: %w", err)
	}
	return nil
}

// SaveFilters writes a filter-only snapshot: the same container as
// Save without the keys, plus any Adds a static backend holds pending,
// so it is about as small as the filter itself. It is the form
// replication ships. Load of it answers queries exactly like the saved
// filter, but the result is read-only (Add returns ErrReadOnly).
func (s *Sharded) SaveFilters(w io.Writer) error {
	if err := s.set.WriteSnapshot(w, false); err != nil {
		return fmt.Errorf("habf: save: %w", err)
	}
	return nil
}

// SaveFile writes a snapshot to path via a uniquely named temporary
// file, fsync and rename, so a crash — including power loss — never
// leaves a truncated snapshot behind: the data is durable before the
// rename makes it visible, and the parent directory is synced so the
// rename itself is. Concurrent SaveFile calls to the same path are safe
// (each save writes its own temp file; the last rename wins).
func (s *Sharded) SaveFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("habf: save: %w", err)
	}
	tmp := f.Name()
	closed := false
	fail := func(err error) error {
		if !closed {
			f.Close()
		}
		os.Remove(tmp)
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := s.Save(bw); err != nil {
		return fail(err) // already "habf: save:"-wrapped
	}
	if err := bw.Flush(); err != nil {
		return fail(fmt.Errorf("habf: save: %w", err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("habf: save: %w", err))
	}
	// CreateTemp makes the file 0600; widen to what a plain os.Create
	// would have produced, so backup jobs and other readers can read the
	// published snapshot.
	if err := f.Chmod(0o644); err != nil {
		return fail(fmt.Errorf("habf: save: %w", err))
	}
	closed = true
	if err := f.Close(); err != nil {
		return fail(fmt.Errorf("habf: save: %w", err))
	}
	if err := os.Rename(tmp, path); err != nil {
		return fail(fmt.Errorf("habf: save: %w", err))
	}
	// Persist the rename: without syncing the directory, the new name can
	// be lost on power failure even though the data blocks are safe. A
	// failure here is a broken durability promise, not a quiet downgrade.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("habf: save: sync dir: %w", err)
	}
	dirErr := d.Sync()
	d.Close()
	if dirErr != nil {
		return fmt.Errorf("habf: save: sync dir: %w", dirErr)
	}
	return nil
}

// Load restores a Sharded from a snapshot produced by Save or
// SaveFilters. The load is zero-copy: after validating checksums, each
// shard's filter serves queries directly out of data and its keys alias
// it, so a multi-gigabyte filter is query-ready as soon as the frames
// are verified. The caller must keep data alive and unmodified for the
// lifetime of the returned filter; a post-load Add copies the affected
// shard's arrays before mutating them (copy-on-first-write), never
// writing data itself.
//
// A full snapshot (Save) loads as an ordinary filter: Stats().Keys
// counts its members, Adds land, and shards rebuild on drift. A
// filter-only snapshot (SaveFilters, or a file written before
// snapshots carried keys) loads read-only: it answers queries exactly
// as the saved filter did, Stats().ReadOnly is true, and Add returns
// ErrReadOnly. Rebuild from the source keys to take writes again.
func Load(data []byte) (*Sharded, error) {
	snap, err := snapshot.Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("habf: load: %w", err)
	}
	set, err := shard.Restore(snap)
	if err != nil {
		return nil, fmt.Errorf("habf: load: %w", err)
	}
	return &Sharded{set: set}, nil
}

// LoadFile reads path into memory and restores it with Load. The file's
// contents back the returned filter directly (zero-copy).
func LoadFile(path string) (*Sharded, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("habf: load: %w", err)
	}
	return Load(data)
}
