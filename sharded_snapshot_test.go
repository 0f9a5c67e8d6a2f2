// Snapshot/restore contracts of the public API, including the -race
// test of Save racing concurrent Adds and a drift rebuild (CI runs the
// whole suite under -race).
package habf_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	habf "repro"
)

func snapshotFixture(t testing.TB, n int) (*habf.Sharded, [][]byte, [][]byte) {
	t.Helper()
	pos := make([][]byte, n)
	negKeys := make([][]byte, n)
	neg := make([]habf.WeightedKey, n)
	for i := 0; i < n; i++ {
		pos[i] = []byte(fmt.Sprintf("snap-member-%06d", i))
		negKeys[i] = []byte(fmt.Sprintf("snap-absent-%06d", i))
		neg[i] = habf.WeightedKey{Key: negKeys[i], Cost: float64(i%13 + 1)}
	}
	s, err := habf.NewSharded(pos, neg, uint64(12*n), habf.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	return s, pos, negKeys
}

func TestShardedSaveLoadRoundtrip(t *testing.T) {
	s, pos, negKeys := snapshotFixture(t, 5000)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := habf.Load(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Zero false negatives: the restored filter's core contract.
	for _, key := range pos {
		if !g.Contains(key) {
			t.Fatalf("restored filter lost member %q", key)
		}
	}
	// Exact parity on every probe, not just members: a snapshot restores
	// the same filter, not merely an equivalent one.
	for _, key := range negKeys {
		if s.Contains(key) != g.Contains(key) {
			t.Fatalf("restored filter disagrees on %q", key)
		}
	}
	if s.SizeBits() != g.SizeBits() || s.NumShards() != g.NumShards() {
		t.Fatal("restored filter shape differs")
	}
	batch := append(append([][]byte{}, pos[:512]...), negKeys[:512]...)
	want := s.ContainsBatch(batch)
	got := g.ContainsBatch(batch)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("ContainsBatch disagrees at %d", i)
		}
	}
}

func TestShardedSaveFileLoadFile(t *testing.T) {
	s, pos, _ := snapshotFixture(t, 3000)
	path := filepath.Join(t.TempDir(), "filter.habfsnap")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	g, err := habf.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range pos {
		if !g.Contains(key) {
			t.Fatalf("restored filter lost member %q", key)
		}
	}
	// The restored filter keeps absorbing writes.
	if err := g.Add([]byte("added-after-restore")); err != nil {
		t.Fatal(err)
	}
	if !g.Contains([]byte("added-after-restore")) {
		t.Fatal("Add after LoadFile lost the key")
	}
	if st := g.Stats(); st.ReadOnly || st.Keys != uint64(len(pos))+1 {
		t.Fatalf("restored filter stats %+v; want writable with %d keys", st, len(pos)+1)
	}
}

// TestLoadFilterOnlyIsReadOnly: a SaveFilters container answers exactly
// like the full one over 64k probes, and the filter it loads refuses
// Adds with ErrReadOnly without moving its epoch.
func TestLoadFilterOnlyIsReadOnly(t *testing.T) {
	s, _, _ := snapshotFixture(t, 3000)
	var full, filters bytes.Buffer
	if err := s.Save(&full); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFilters(&filters); err != nil {
		t.Fatal(err)
	}
	if filters.Len()*4 > full.Len() {
		t.Fatalf("filter-only container %d bytes, full %d: keys missing from the full one?", filters.Len(), full.Len())
	}
	g, err := habf.Load(full.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ro, err := habf.Load(filters.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1<<16; i++ {
		probe := []byte(fmt.Sprintf("probe-%06d", i))
		if g.Contains(probe) != ro.Contains(probe) {
			t.Fatalf("filter-only load disagrees with the full load on %q", probe)
		}
	}
	epoch := ro.Epoch()
	if err := ro.Add([]byte("refused")); !errors.Is(err, habf.ErrReadOnly) {
		t.Fatalf("Add on a filter-only load returned %v, want ErrReadOnly", err)
	}
	if ro.Epoch() != epoch || !ro.Stats().ReadOnly {
		t.Fatalf("refused Add: epoch %d → %d, stats %+v", epoch, ro.Epoch(), ro.Stats())
	}
	// A read-only filter has no keys to save: Save of it writes the
	// filter-only container again, which loads read-only.
	var again bytes.Buffer
	if err := ro.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), filters.Bytes()) {
		t.Fatal("Save of a filter-only load differs from the filter-only container")
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	s, _, _ := snapshotFixture(t, 1000)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for name, data := range map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)*2/3],
		"bitrot": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)/2] ^= 0x01
			return b
		}(),
	} {
		if _, err := habf.Load(data); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
	if _, err := habf.LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("LoadFile of a missing path succeeded")
	}
}

// TestSaveUnderConcurrentAddAndRebuild is the -race snapshot test: Save
// runs while writers stream Adds and a low rebuild threshold forces
// background rebuilds to swap shards mid-save. The restored copy must
// answer true for every key whose Add returned before Save was called —
// the durability contract Save documents.
func TestSaveUnderConcurrentAddAndRebuild(t *testing.T) {
	pos := make([][]byte, 4000)
	for i := range pos {
		pos[i] = []byte(fmt.Sprintf("base-%06d", i))
	}
	// Aggressive threshold so the writer's Adds trigger rebuilds while
	// the snapshot is being taken.
	s, err := habf.NewSharded(pos, nil, uint64(12*len(pos)),
		habf.WithShards(8), habf.WithRebuildThreshold(0.001))
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers      = 4
		maxPerWriter = 1 << 16
	)
	var (
		stop    atomic.Bool
		ackedN  [writers]atomic.Int64 // published after the key lands in acked
		wg      sync.WaitGroup
		readers sync.WaitGroup
	)
	acked := make([][][]byte, writers) // pre-sized: writers never resize
	for w := range acked {
		acked[w] = make([][]byte, maxPerWriter)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < maxPerWriter && !stop.Load(); i++ {
				key := []byte(fmt.Sprintf("live-%d-%06d", w, i))
				s.Add(key)
				acked[w][i] = key
				ackedN[w].Add(1) // release: Add returned, key is durable-eligible
			}
		}(w)
	}
	// Concurrent readers keep the no-blocked-readers property honest
	// under -race.
	readers.Add(2)
	for r := 0; r < 2; r++ {
		go func() {
			defer readers.Done()
			for !stop.Load() {
				s.Contains(pos[0])
				s.ContainsBatch(pos[:64])
			}
		}()
	}

	// Let writes and rebuilds get going, then snapshot mid-flight. Keys
	// acknowledged before this point MUST be durable; later ones may be.
	for s.Stats().Keys < uint64(len(pos))+800 {
	}
	ackedBefore := make([][]byte, 0, 4096)
	for w := 0; w < writers; w++ {
		n := ackedN[w].Load() // acquire: pairs with the writer's Add(1)
		ackedBefore = append(ackedBefore, acked[w][:n]...)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	readers.Wait()
	s.WaitRebuilds()

	g, err := habf.Load(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range pos {
		if !g.Contains(key) {
			t.Fatalf("restored copy lost base member %q", key)
		}
	}
	for _, key := range ackedBefore {
		if !g.Contains(key) {
			t.Fatalf("restored copy lost %q, acknowledged before Save", key)
		}
	}
	if st := s.Stats(); st.Rebuilds == 0 {
		t.Log("note: no background rebuild completed during the test window")
	}
}
