package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/hashes"
	"repro/internal/snapshot"
)

// saveSnapshot writes s as a full (withKeys) or filter-only container.
func saveSnapshot(t testing.TB, s *Set, withKeys bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf, withKeys); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// takeSnapshot decodes a fresh container of s; its payloads and keys
// alias a buffer only the returned snapshot references.
func takeSnapshot(t testing.TB, s *Set, withKeys bool) *snapshot.Snapshot {
	t.Helper()
	snap, err := snapshot.Unmarshal(saveSnapshot(t, s, withKeys))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// snapshotRoundtrip saves s as a full container and restores it.
func snapshotRoundtrip(t testing.TB, s *Set) *Set {
	t.Helper()
	g, err := Restore(takeSnapshot(t, s, true))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// filterOnlyRoundtrip saves s as a filter-only container and restores
// it, read-only.
func filterOnlyRoundtrip(t testing.TB, s *Set) *Set {
	t.Helper()
	g, err := Restore(takeSnapshot(t, s, false))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Stats().ReadOnly {
		t.Fatal("filter-only restore is not read-only")
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
	data := saveSnapshot(t, s, true)
	before := append([]byte(nil), data...)
	decoded, err := snapshot.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Restore(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.Stats().Keys, s.Stats().Keys; got != want {
		t.Fatalf("restored set holds %d keys, want %d", got, want)
	}
	for i := 0; i < 500; i++ {
		if err := g.Add([]byte(fmt.Sprintf("late-%06d", i))); err != nil {
			t.Fatal(err)
		}
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
	// Copy-on-write: neither the Adds nor the drift rebuilds they set
	// off may write into the snapshot buffer the filters and keys alias.
	g.WaitRebuilds()
	if string(before) != string(data) {
		t.Fatal("Add after restore mutated the snapshot buffer")
	}
	// The snapshot carried the keys, so the restored shards rebuild on
	// drift like built ones.
	if st := g.Stats(); st.Rebuilds == 0 || st.ReadOnly || st.Keys != 3500 {
		t.Fatalf("restored set after 500 Adds: %+v; want rebuilds, writable, 3500 keys", st)
	}
}

// TestFilterOnlyRestoreIsReadOnly: a filter-only container answers
// every query exactly as the full one does, and the read-only set it
// restores refuses Adds without moving its epoch.
func TestFilterOnlyRestoreIsReadOnly(t *testing.T) {
	s, _, _ := newSet(t, 4000, Config{Shards: 8})
	full := snapshotRoundtrip(t, s)
	ro := filterOnlyRoundtrip(t, s)
	for i := 0; i < 1<<16; i++ {
		probe := []byte(fmt.Sprintf("probe-%06d", i))
		if full.Contains(probe) != ro.Contains(probe) {
			t.Fatalf("filter-only set disagrees with the full load on %q", probe)
		}
	}
	epoch := ro.Epoch()
	if err := ro.Add([]byte("refused")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Add on a read-only set returned %v, want ErrReadOnly", err)
	}
	if ro.Epoch() != epoch || ro.Stats().Keys != 0 {
		t.Fatalf("refused Add changed the set: epoch %d → %d, %d keys", epoch, ro.Epoch(), ro.Stats().Keys)
	}
	if epoch != s.Epoch() || full.Epoch() != s.Epoch() {
		t.Fatalf("restored epochs %d (filter-only) and %d (full), want %d", epoch, full.Epoch(), s.Epoch())
	}
}

func TestSnapshotEpochsAdvance(t *testing.T) {
	s, _, _ := newSet(t, 2000, Config{Shards: 4, RebuildThreshold: -1})
	snap1 := takeSnapshot(t, s, true)
	for i := 0; i < 100; i++ {
		s.Add([]byte(fmt.Sprintf("epoch-%06d", i)))
	}
	snap2 := takeSnapshot(t, s, true)
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
	snap := takeSnapshot(t, s, true)
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
	good := takeSnapshot(t, s, true)
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
	snap := takeSnapshot(t, s, true)
	if snap.Meta.RouteSeed != hashes.BaseSeed {
		t.Fatalf("snapshot records route seed %#x, want hashes.BaseSeed", snap.Meta.RouteSeed)
	}
	snap.Meta.RouteSeed = 0x9e3779b97f4a7c15
	if _, err := Restore(snap); err == nil {
		t.Fatal("restore accepted a legacy route seed")
	}
}

// TestRestoreRejectsKeysFrameWithoutBaseline: a shard has a filter
// exactly when its keys frame records the positives it was built from.
// A frame that records none beside a real filter would let the first
// Add rebuild that filter from the new key alone, so Restore refuses it.
func TestRestoreRejectsKeysFrameWithoutBaseline(t *testing.T) {
	s, _, _ := newSet(t, 1000, Config{Shards: 4})
	snap := takeSnapshot(t, s, true)
	snap.Keys[0].Positives, snap.Keys[0].Baseline = nil, 0
	if _, err := Restore(snap); err == nil {
		t.Fatal("restore accepted a keys frame with no build keys beside a filter")
	}
	snap = takeSnapshot(t, s, true)
	snap.Keys[1].Baseline = 0
	if _, err := Restore(snap); err == nil {
		t.Fatal("restore accepted a keys frame with baseline 0 beside a filter")
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
