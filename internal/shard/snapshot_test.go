package shard

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hashes"
	"repro/internal/snapshot"
)

func snapshotRoundtrip(t *testing.T, s *Set) *Set {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := snapshot.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Restore(decoded)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSnapshotRestoreAnswersIdentically(t *testing.T) {
	s, pos, negKeys := newSet(t, 5000, Config{Shards: 8})
	g := snapshotRoundtrip(t, s)
	for _, key := range pos {
		if !g.Contains(key) {
			t.Fatalf("restored set lost member %q", key)
		}
	}
	for _, key := range negKeys {
		if s.Contains(key) != g.Contains(key) {
			t.Fatalf("restored set disagrees on %q", key)
		}
	}
	for i := 0; i < 3000; i++ {
		probe := []byte(fmt.Sprintf("probe-%06d", i))
		if s.Contains(probe) != g.Contains(probe) {
			t.Fatalf("restored set disagrees on probe %q", probe)
		}
	}
	if s.NumShards() != g.NumShards() {
		t.Fatalf("shard count %d != %d", g.NumShards(), s.NumShards())
	}
	if s.SizeBits() != g.SizeBits() {
		t.Fatalf("size %d != %d", g.SizeBits(), s.SizeBits())
	}
	if s.Name() != g.Name() {
		t.Fatalf("name %q != %q", g.Name(), s.Name())
	}
}

func TestRestoreIsZeroCopy(t *testing.T) {
	s, _, _ := newSet(t, 4000, Config{Shards: 4})
	g := snapshotRoundtrip(t, s)
	borrowed := 0
	for _, sh := range g.shards {
		if sh.f != nil && sh.f.Borrowed() {
			borrowed++
		}
	}
	// The container aligns every frame, so on a little-endian host every
	// non-empty shard must be serving straight from the snapshot buffer.
	if borrowed == 0 {
		t.Fatal("no shard filter borrowed from the snapshot buffer; zero-copy load regressed")
	}
}

func TestRestoredSetAbsorbsAddsWithCopyOnWrite(t *testing.T) {
	s, pos, _ := newSet(t, 3000, Config{Shards: 4})
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), data...)
	decoded, err := snapshot.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Restore(decoded)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		g.Add([]byte(fmt.Sprintf("late-%06d", i)))
	}
	for i := 0; i < 500; i++ {
		if !g.Contains([]byte(fmt.Sprintf("late-%06d", i))) {
			t.Fatalf("restored set lost added key %d", i)
		}
	}
	for _, key := range pos {
		if !g.Contains(key) {
			t.Fatalf("Add after restore lost original member %q", key)
		}
	}
	// Copy-on-write: mutations must never leak into the snapshot buffer.
	if string(before) != string(data) {
		t.Fatal("Add after restore mutated the snapshot buffer")
	}
	st := g.Stats()
	if st.Restored == 0 {
		t.Fatal("Stats does not report restored shards")
	}
	// Restored shards must not schedule drift rebuilds (they have no key
	// list to rebuild from).
	g.WaitRebuilds()
	if got := g.Stats().Rebuilds; got != 0 {
		t.Fatalf("restored set ran %d drift rebuilds; want 0", got)
	}
}

func TestSnapshotEpochsAdvance(t *testing.T) {
	s, _, _ := newSet(t, 2000, Config{Shards: 4, RebuildThreshold: -1})
	snap1, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Add([]byte(fmt.Sprintf("epoch-%06d", i)))
	}
	snap2, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var e1, e2 uint64
	for i := range snap1.Frames {
		e1 += snap1.Frames[i].Epoch
		e2 += snap2.Frames[i].Epoch
	}
	if e2 != e1+100 {
		t.Fatalf("epoch sum advanced by %d after 100 Adds; want 100", e2-e1)
	}
}

func TestRestoreRejectsBadShardCount(t *testing.T) {
	s, _, _ := newSet(t, 1000, Config{Shards: 4})
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Frames = snap.Frames[:3] // not a power of two
	if _, err := Restore(snap); err == nil {
		t.Fatal("restore accepted a 3-shard snapshot")
	}
	snap.Frames = nil
	if _, err := Restore(snap); err == nil {
		t.Fatal("restore accepted an empty snapshot")
	}
}

// Regression: a CRC-valid but hostile snapshot with absurd float meta
// used to be accepted, and the first Add routed to an empty restored
// shard fed BitsPerKey straight into a filter-size computation —
// panicking in make(). Restore must bound the meta instead.
func TestRestoreRejectsHostileMeta(t *testing.T) {
	s, _, _ := newSet(t, 1000, Config{Shards: 4})
	good, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(m *snapshot.Meta){
		"huge bits-per-key": func(m *snapshot.Meta) { m.BitsPerKey = 1e300 },
		"inf bits-per-key":  func(m *snapshot.Meta) { m.BitsPerKey = math.Inf(1) },
		"nan bits-per-key":  func(m *snapshot.Meta) { m.BitsPerKey = math.NaN() },
		"neg bits-per-key":  func(m *snapshot.Meta) { m.BitsPerKey = -1 },
		"nan space ratio":   func(m *snapshot.Meta) { m.SpaceRatio = math.NaN() },
		"big space ratio":   func(m *snapshot.Meta) { m.SpaceRatio = 1.5 },
		"nan threshold":     func(m *snapshot.Meta) { m.Threshold = math.NaN() },
		"bad cellbits":      func(m *snapshot.Meta) { m.CellBits = 200 },
		"bad k":             func(m *snapshot.Meta) { m.K = 200 },
		"k of one":          func(m *snapshot.Meta) { m.K = 1 },
	}
	for name, mutate := range cases {
		snap := *good
		mutate(&snap.Meta)
		if _, err := Restore(&snap); err == nil {
			t.Errorf("%s: hostile meta accepted", name)
		}
	}
}

// TestRestoreRejectsLegacyRouteSeed: keys route by hashes.Base alone, so
// a container recording any other route seed (every container written
// before the batch path hashed once) placed its keys in other shards and
// must be refused, not served with false negatives.
func TestRestoreRejectsLegacyRouteSeed(t *testing.T) {
	s, _, _ := newSet(t, 1000, Config{Shards: 4})
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.RouteSeed != hashes.BaseSeed {
		t.Fatalf("snapshot records route seed %#x, want hashes.BaseSeed", snap.Meta.RouteSeed)
	}
	snap.Meta.RouteSeed = 0x9e3779b97f4a7c15
	if _, err := Restore(snap); err == nil {
		t.Fatal("restore accepted a legacy route seed")
	}
}

func TestRestoredEmptyShardBuildsLazily(t *testing.T) {
	// A set whose keys all route to few shards leaves others empty; after
	// restore those shards must lazily build on their first Add, exactly
	// like a fresh set.
	pos := [][]byte{[]byte("only-one-key")}
	s, err := New(pos, nil, Config{Shards: 8, TotalBits: 4096})
	if err != nil {
		t.Fatal(err)
	}
	g := snapshotRoundtrip(t, s)
	for i := 0; i < 2000; i++ {
		g.Add([]byte(fmt.Sprintf("fill-%06d", i)))
	}
	for i := 0; i < 2000; i++ {
		if !g.Contains([]byte(fmt.Sprintf("fill-%06d", i))) {
			t.Fatalf("lazily built shard lost key %d", i)
		}
	}
	if !g.Contains([]byte("only-one-key")) {
		t.Fatal("restored member lost")
	}
}
