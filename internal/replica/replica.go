// Package replica implements snapshot-shipping replication for the
// serving layer: a Follower pulls a primary habfserved's filter-only
// snapshot over HTTP (GET /v1/snapshot), restores it zero-copy as a
// read-only filter (it carries no keys, so it takes no Adds), hands the
// restored filter to its owner through a swap callback, and then polls
// the primary's mutation epoch (GET /v1/epoch), re-syncing whenever it
// advances.
//
// The freshness signal is the epoch the *primary* reports — first in
// the snapshot response's X-Habf-Epoch header, then from the epoch
// endpoint. The follower never compares its own locally computed epoch
// against the primary's: the primary captures each shard's frame after
// sampling the epoch it stamps, so Adds landing mid-download put the
// restored filter's local epoch ahead of the stamp, and local epochs
// from different processes are not comparable. Epochs are monotone, so "primary != synced" is
// exactly "there is something newer to pull".
//
// Failure handling is pull-side only and keeps the follower serving:
// if the primary dies mid-pull, or the epoch poll fails, the follower
// keeps answering from the last filter it restored and retries with
// exponential backoff plus jitter. A snapshot whose body is cut short
// fails the container checksum in habf.Load and is discarded — a
// partial pull can never be swapped in.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	habf "repro"
)

// Config configures a Follower. Primary is required; everything else
// has a serviceable default.
type Config struct {
	// Primary is the primary's HTTP base, "host:port" or a full
	// "http://host:port" URL. Paths are appended to it.
	Primary string

	// OnSwap receives each successfully restored filter together with
	// the primary-reported epoch of the snapshot it came from. It runs
	// on the Follower's goroutine; returning an error discards the sync
	// (the epoch is not recorded, so it is retried). Required.
	OnSwap func(f *habf.Sharded, epoch uint64) error

	// PollInterval is how often the primary's epoch is checked while in
	// sync. Default 1s.
	PollInterval time.Duration

	// MinBackoff and MaxBackoff bound the exponential retry delay after
	// a failed poll or pull. Defaults 200ms and 5s.
	MinBackoff time.Duration
	MaxBackoff time.Duration

	// Logf, when set, receives one line per state change (sync, retry).
	Logf func(format string, args ...any)
}

// Timeouts of the follower's two requests to the primary, both sent
// through http.DefaultClient.
const (
	pullTimeout = 60 * time.Second // one snapshot download
	pollTimeout = 2 * time.Second  // one epoch request
)

// Stats is a point-in-time snapshot of a Follower's replication state.
type Stats struct {
	SyncedEpoch  uint64 // primary-reported epoch of the last restored snapshot
	PrimaryEpoch uint64 // epoch from the most recent successful poll
	Resyncs      uint64 // successful snapshot restores, including the first
	Failures     uint64 // failed polls and pulls since start
}

// Lag returns how many epochs the follower is behind the primary, as
// of the last successful poll. Saturates at zero: a primary restarted
// from an older snapshot can briefly report a smaller epoch.
func (s Stats) Lag() uint64 {
	if s.PrimaryEpoch <= s.SyncedEpoch {
		return 0
	}
	return s.PrimaryEpoch - s.SyncedEpoch
}

// Follower replicates one primary. Create with New, bootstrap with
// Sync, then let Run poll; Stats may be read from any goroutine.
type Follower struct {
	cfg  Config
	base string

	synced       atomic.Bool
	syncedEpoch  atomic.Uint64
	primaryEpoch atomic.Uint64
	resyncs      atomic.Uint64
	failures     atomic.Uint64
}

// New validates cfg and returns a Follower. No network traffic happens
// until Sync or Run.
func New(cfg Config) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, errors.New("replica: primary address required")
	}
	if cfg.OnSwap == nil {
		return nil, errors.New("replica: OnSwap callback required")
	}
	base := strings.TrimSuffix(cfg.Primary, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = time.Second
	}
	if cfg.MinBackoff <= 0 {
		cfg.MinBackoff = 200 * time.Millisecond
	}
	if cfg.MaxBackoff < cfg.MinBackoff {
		cfg.MaxBackoff = 5 * time.Second
		if cfg.MaxBackoff < cfg.MinBackoff {
			cfg.MaxBackoff = cfg.MinBackoff
		}
	}
	return &Follower{cfg: cfg, base: base}, nil
}

// Primary returns the normalized primary base URL ("http://host:port"),
// the redirect target a read-only follower hands to writers.
func (f *Follower) Primary() string { return f.base }

// Stats returns the current replication counters.
func (f *Follower) Stats() Stats {
	return Stats{
		SyncedEpoch:  f.syncedEpoch.Load(),
		PrimaryEpoch: f.primaryEpoch.Load(),
		Resyncs:      f.resyncs.Load(),
		Failures:     f.failures.Load(),
	}
}

// logf writes one log line if a logger is configured.
func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// Sync performs one snapshot pull: download, restore, swap. On success
// the snapshot's primary-reported epoch becomes the synced epoch. On
// any failure the previously installed filter stays in place and the
// failure counter advances.
func (f *Follower) Sync(ctx context.Context) error {
	err := f.sync(ctx)
	if err != nil {
		f.failures.Add(1)
	}
	return err
}

func (f *Follower) sync(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, pullTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/v1/snapshot", nil)
	if err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("replica: pull snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("replica: pull snapshot: primary answered %s: %s",
			resp.Status, strings.TrimSpace(string(body)))
	}
	epoch, err := strconv.ParseUint(resp.Header.Get("X-Habf-Epoch"), 10, 64)
	if err != nil {
		return fmt.Errorf("replica: primary sent no usable X-Habf-Epoch header: %w", err)
	}
	// The restored filter serves directly out of this buffer (zero-copy
	// load), so it is allocated fresh per sync and owned by the filter.
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("replica: pull snapshot: %w", err)
	}
	filter, err := habf.Load(data)
	if err != nil {
		// Covers truncated bodies too: a cut stream fails the container
		// checksum here rather than installing a half-written filter.
		return fmt.Errorf("replica: restore snapshot: %w", err)
	}
	if err := f.cfg.OnSwap(filter, epoch); err != nil {
		return fmt.Errorf("replica: swap rejected: %w", err)
	}
	f.syncedEpoch.Store(epoch)
	f.synced.Store(true)
	f.resyncs.Add(1)
	f.logf("replica: synced snapshot at epoch %d (%d bytes)", epoch, len(data))
	return nil
}

// fetchEpoch asks the primary for its current epoch.
func (f *Follower) fetchEpoch(ctx context.Context) (uint64, error) {
	ctx, cancel := context.WithTimeout(ctx, pollTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/v1/epoch", nil)
	if err != nil {
		return 0, fmt.Errorf("replica: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("replica: poll epoch: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64))
	if err != nil {
		return 0, fmt.Errorf("replica: poll epoch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("replica: poll epoch: primary answered %s", resp.Status)
	}
	epoch, err := strconv.ParseUint(strings.TrimSpace(string(body)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("replica: poll epoch: %w", err)
	}
	return epoch, nil
}

// Run polls the primary until ctx is done, re-syncing whenever the
// primary's epoch differs from the synced one (including the initial
// sync, if Sync was never called). Failures back off exponentially
// with jitter between MinBackoff and MaxBackoff; the follower keeps
// serving its last restored filter throughout.
func (f *Follower) Run(ctx context.Context) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	backoff := f.cfg.MinBackoff
	for ctx.Err() == nil {
		delay := f.cfg.PollInterval
		epoch, err := f.fetchEpoch(ctx)
		switch {
		case err != nil:
			f.failures.Add(1)
			f.logf("%v (retrying in %v)", err, backoff)
			delay, backoff = jitter(rng, backoff), nextBackoff(backoff, f.cfg.MaxBackoff)
		case !f.synced.Load() || epoch != f.syncedEpoch.Load():
			f.primaryEpoch.Store(epoch)
			if err := f.Sync(ctx); err != nil {
				f.logf("%v (retrying in %v)", err, backoff)
				delay, backoff = jitter(rng, backoff), nextBackoff(backoff, f.cfg.MaxBackoff)
			} else {
				backoff = f.cfg.MinBackoff
			}
		default:
			f.primaryEpoch.Store(epoch)
			backoff = f.cfg.MinBackoff
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(delay):
		}
	}
}

// jitter spreads a backoff delay over [d/2, d), so a fleet of
// followers losing the same primary does not retry in lockstep.
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rng.Int63n(int64(half)))
}

// nextBackoff doubles d up to max.
func nextBackoff(d, max time.Duration) time.Duration {
	d *= 2
	if d > max {
		return max
	}
	return d
}
