// Package lsm implements a miniature leveled log-structured merge tree —
// the motivating substrate of the paper's introduction, where Bloom-filter
// false positives translate into wasted disk reads whose cost differs per
// level (the LevelDB scenario cited in §I and §II "Cost-based").
//
// The tree is deliberately simple: an in-memory memtable, an L0 of
// recently flushed runs and exponentially larger single-run levels below,
// each run guarded by a pluggable membership filter. The "disk" is
// simulated: every run probe is counted against the level's read cost, so
// experiments can compare filter policies by total I/O cost rather than
// wall time. Runs and their guards live in memory only; the tree
// persists nothing.
package lsm

import (
	"fmt"
	"sort"
)

// Filter is the membership interface a run guard must satisfy.
type Filter interface {
	Contains(key []byte) bool
}

// FilterBuilder constructs a guard for a freshly written run at the given
// level. A nil builder (or nil return) leaves the run unguarded.
type FilterBuilder func(keys [][]byte, level int) Filter

// The tree's shape: each level holds levelRatio times the one above,
// and there are at most maxLevels.
const (
	levelRatio = 4
	maxLevels  = 6
)

// Config tunes the tree shape.
type Config struct {
	// MemtableSize is the number of entries buffered before a flush.
	// Default 1024.
	MemtableSize int
	// MaxL0Runs triggers L0→L1 compaction. Default 4.
	MaxL0Runs int
	// ReadCost[i] is the simulated cost of one probe into a level-i run.
	// Defaults to 1, 2, 4, ... (doubling), mirroring deeper-is-dearer.
	ReadCost []float64
	// NewFilter guards freshly written runs. Optional.
	NewFilter FilterBuilder
}

func (c Config) withDefaults() Config {
	if c.MemtableSize == 0 {
		c.MemtableSize = 1024
	}
	if c.MaxL0Runs == 0 {
		c.MaxL0Runs = 4
	}
	if len(c.ReadCost) == 0 {
		c.ReadCost = make([]float64, maxLevels)
		cost := 1.0
		for i := range c.ReadCost {
			c.ReadCost[i] = cost
			cost *= 2
		}
	}
	return c
}

// Stats aggregates the simulated I/O activity.
type Stats struct {
	// Reads[i] counts run probes at level i.
	Reads []uint64
	// WastedReads[i] counts probes that found nothing (filter false
	// positives, or unguarded misses).
	WastedReads []uint64
	// FilterRejects[i] counts probes avoided by run guards.
	FilterRejects []uint64
	// CostIncurred is Σ reads × level cost.
	CostIncurred float64
	// WastedCost is the share of CostIncurred from wasted reads — the
	// quantity HABF minimizes when guards are cost-aware.
	WastedCost float64
}

// run is one immutable sorted string table.
type run struct {
	keys   []string
	values [][]byte
	guard  Filter
}

func (r *run) get(key string) ([]byte, bool) {
	i := sort.SearchStrings(r.keys, key)
	if i < len(r.keys) && r.keys[i] == key {
		return r.values[i], true
	}
	return nil, false
}

// Store is the tree. Not safe for concurrent use.
type Store struct {
	cfg    Config
	mem    map[string][]byte
	l0     []*run // newest first
	levels []*run // levels[i] is the single run of level i+1; may be nil
	stats  Stats
}

// New returns an empty store.
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	return &Store{
		cfg:    cfg,
		mem:    make(map[string][]byte, cfg.MemtableSize),
		levels: make([]*run, maxLevels-1),
		stats: Stats{
			Reads:         make([]uint64, maxLevels),
			WastedReads:   make([]uint64, maxLevels),
			FilterRejects: make([]uint64, maxLevels),
		},
	}
}

// Put inserts or overwrites a key.
func (s *Store) Put(key, value []byte) {
	s.mem[string(key)] = append([]byte(nil), value...)
	if len(s.mem) >= s.cfg.MemtableSize {
		s.Flush()
	}
}

// Flush writes the memtable to a new L0 run and compacts if needed.
func (s *Store) Flush() {
	if len(s.mem) == 0 {
		return
	}
	keys := make([]string, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	r := &run{keys: keys, values: make([][]byte, len(keys))}
	for i, k := range keys {
		r.values[i] = s.mem[k]
	}
	r.guard = s.buildGuard(r, 0)
	s.mem = make(map[string][]byte, s.cfg.MemtableSize)
	s.l0 = append([]*run{r}, s.l0...)
	if len(s.l0) > s.cfg.MaxL0Runs {
		s.compact()
	}
}

func (s *Store) buildGuard(r *run, level int) Filter {
	if s.cfg.NewFilter == nil {
		return nil
	}
	keys := make([][]byte, len(r.keys))
	for i, k := range r.keys {
		keys[i] = []byte(k)
	}
	return s.cfg.NewFilter(keys, level)
}

// compact merges all of L0 into level 1, cascading down while a level
// exceeds its capacity memtableSize · ratio^level.
func (s *Store) compact() {
	merged := s.l0
	s.l0 = nil
	cur := mergeRuns(merged) // newest-first input keeps newest values
	for li := 0; li < len(s.levels); li++ {
		if s.levels[li] != nil {
			cur = mergeRuns([]*run{cur, s.levels[li]})
			s.levels[li] = nil
		}
		capacity := s.cfg.MemtableSize
		for i := 0; i <= li; i++ {
			capacity *= levelRatio
		}
		if len(cur.keys) <= capacity || li == len(s.levels)-1 {
			cur.guard = s.buildGuard(cur, li+1)
			s.levels[li] = cur
			return
		}
	}
	// No levels configured below L0: keep as a single L0 run.
	cur.guard = s.buildGuard(cur, 0)
	s.l0 = []*run{cur}
}

// mergeRuns merges runs, earlier runs winning on duplicate keys.
func mergeRuns(runs []*run) *run {
	seen := map[string]int{} // key -> index of winning run
	var total int
	for _, r := range runs {
		total += len(r.keys)
	}
	keys := make([]string, 0, total)
	values := map[string][]byte{}
	for ri, r := range runs {
		for i, k := range r.keys {
			if w, ok := seen[k]; ok && w <= ri {
				continue
			}
			if _, ok := seen[k]; !ok {
				keys = append(keys, k)
			}
			seen[k] = ri
			values[k] = r.values[i]
		}
	}
	sort.Strings(keys)
	out := &run{keys: keys, values: make([][]byte, len(keys))}
	for i, k := range keys {
		out.values[i] = values[k]
	}
	return out
}

// probe consults one run, charging the simulated disk.
func (s *Store) probe(r *run, level int, key []byte) ([]byte, bool) {
	if r.guard != nil && !r.guard.Contains(key) {
		s.stats.FilterRejects[level]++
		return nil, false
	}
	s.stats.Reads[level]++
	cost := s.cfg.ReadCost[level]
	s.stats.CostIncurred += cost
	v, ok := r.get(string(key))
	if !ok {
		s.stats.WastedReads[level]++
		s.stats.WastedCost += cost
	}
	return v, ok
}

// Get looks a key up through memtable, L0 runs (newest first), then the
// deeper levels.
func (s *Store) Get(key []byte) ([]byte, bool) {
	if v, ok := s.mem[string(key)]; ok {
		return v, true
	}
	for _, r := range s.l0 {
		if v, ok := s.probe(r, 0, key); ok {
			return v, true
		}
	}
	for li, r := range s.levels {
		if r == nil {
			continue
		}
		if v, ok := s.probe(r, li+1, key); ok {
			return v, true
		}
	}
	return nil, false
}

// Stats returns a copy of the I/O counters.
func (s *Store) Stats() Stats {
	out := s.stats
	out.Reads = append([]uint64(nil), s.stats.Reads...)
	out.WastedReads = append([]uint64(nil), s.stats.WastedReads...)
	out.FilterRejects = append([]uint64(nil), s.stats.FilterRejects...)
	return out
}

// ResetStats zeroes the I/O counters (e.g. after a warm-up phase).
func (s *Store) ResetStats() {
	for i := range s.stats.Reads {
		s.stats.Reads[i] = 0
		s.stats.WastedReads[i] = 0
		s.stats.FilterRejects[i] = 0
	}
	s.stats.CostIncurred = 0
	s.stats.WastedCost = 0
}

// Runs reports the number of runs per level (L0 first) for debugging and
// tests.
func (s *Store) Runs() []int {
	out := []int{len(s.l0)}
	for _, r := range s.levels {
		if r != nil {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// String summarizes the tree shape.
func (s *Store) String() string {
	return fmt.Sprintf("lsm{mem=%d, runs=%v}", len(s.mem), s.Runs())
}
