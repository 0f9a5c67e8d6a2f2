package shard

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/filtercore"
	"repro/internal/snapshot"
)

// backendsUnderTest honors the CI matrix's FILTERCORE_BACKEND isolation
// (see internal/filtercore's conformance suite).
func backendsUnderTest() []string {
	if only := os.Getenv("FILTERCORE_BACKEND"); only != "" {
		return []string{only}
	}
	return filtercore.Names()
}

// staticBackendsUnderTest filters backendsUnderTest down to the static
// families (the ones whose Adds ride the pending buffer).
func staticBackendsUnderTest(t *testing.T) []string {
	var out []string
	for _, name := range backendsUnderTest() {
		f, err := filtercore.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if f.Static {
			out = append(out, name)
		}
	}
	return out
}

// requireBackend skips a backend-specific test when the CI matrix has
// isolated the run to a different backend.
func requireBackend(t *testing.T, backend string) {
	if only := os.Getenv("FILTERCORE_BACKEND"); only != "" && only != backend {
		t.Skipf("FILTERCORE_BACKEND=%s isolates this run", only)
	}
}

// TestBackendsServeAndSnapshot runs the full shard-layer contract over
// every registered backend: zero false negatives, batch parity, Adds
// (absorbed or pending), snapshot → restore answering identically with
// the same keys and pending map, and restored-set Adds.
func TestBackendsServeAndSnapshot(t *testing.T) {
	for _, backend := range backendsUnderTest() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			s, pos, negKeys := newSet(t, 4000, Config{Shards: 8, Backend: backend})
			if got := s.Backend(); got != backend {
				t.Fatalf("Backend() = %q, want %q", got, backend)
			}
			if !strings.Contains(s.Name(), "Sharded[8×") {
				t.Fatalf("unexpected set name %q", s.Name())
			}
			for _, key := range pos {
				if !s.Contains(key) {
					t.Fatalf("false negative for %q", key)
				}
			}
			probe := append(append([][]byte{}, pos[:800]...), negKeys[:800]...)
			got := s.ContainsBatch(probe)
			for i, key := range probe {
				if want := s.Contains(key); got[i] != want {
					t.Fatalf("key %q: batch=%v per-key=%v", key, got[i], want)
				}
			}

			// Adds are queryable on return regardless of backend
			// mutability (static backends serve them from the pending
			// buffer until a rebuild absorbs them).
			fresh := make([][]byte, 300)
			for i := range fresh {
				fresh[i] = []byte(fmt.Sprintf("late-%s-%06d", backend, i))
				s.Add(fresh[i])
				if !s.Contains(fresh[i]) {
					t.Fatalf("key %q not visible immediately after Add", fresh[i])
				}
			}
			for i, ok := range s.ContainsBatch(fresh) {
				if !ok {
					t.Fatalf("batch lost added key %d", i)
				}
			}

			// Snapshot captures every acked Add: the keys frames carry
			// them, and a static backend's restore re-pends the ones its
			// filter does not represent.
			s.WaitRebuilds()
			g := snapshotRoundtrip(t, s)
			if g.Backend() != backend {
				t.Fatalf("restored Backend() = %q, want %q", g.Backend(), backend)
			}
			if g.Name() != s.Name() {
				t.Fatalf("restored name %q != %q", g.Name(), s.Name())
			}
			for _, key := range append(append([][]byte{}, pos...), fresh...) {
				if !g.Contains(key) {
					t.Fatalf("restored set lost %q", key)
				}
			}
			if st, want := g.Stats(), s.Stats(); st.Keys != want.Keys || st.Pending != want.Pending || st.Added != want.Added {
				t.Fatalf("restored set holds %d keys, %d pending, %d added; want %d, %d, %d",
					st.Keys, st.Pending, st.Added, want.Keys, want.Pending, want.Added)
			}
			// Restored sets keep accepting Adds with zero false negatives.
			for i := 0; i < 100; i++ {
				key := []byte(fmt.Sprintf("post-restore-%06d", i))
				if err := g.Add(key); err != nil {
					t.Fatal(err)
				}
				if !g.Contains(key) {
					t.Fatalf("restored set lost added key %q", key)
				}
			}
			g.WaitRebuilds()
			s.WaitRebuilds()
		})
	}
}

// TestStaticBackendPendingAbsorbedByRebuild pins the static-backend Add
// path: keys land in the pending buffer, the drift rebuild absorbs them
// into a fresh filter, and the buffer empties.
func TestStaticBackendPendingAbsorbedByRebuild(t *testing.T) {
	for _, backend := range staticBackendsUnderTest(t) {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			s, pos, _ := newSet(t, 2000, Config{Shards: 4, Backend: backend, RebuildThreshold: 0.01})
			// The fresh keys reuse the exact fixture-negative key shape
			// ("absent-" + numeric tail outside the built range): learned
			// backends score keys of any other shape out-of-distribution,
			// often above τ, and a filter that already answers true never
			// buffers the key as pending.
			var fresh [][]byte
			for i := 0; i < 400; i++ {
				k := []byte(fmt.Sprintf("absent-%06d", 500000+i))
				fresh = append(fresh, k)
				s.Add(k)
			}
			s.WaitRebuilds()
			st := s.Stats()
			if st.Rebuilds == 0 {
				t.Fatalf("expected rebuilds to absorb pending keys: %+v", st)
			}
			if st.RebuildErrors != 0 {
				t.Fatalf("rebuild errors: %+v", st)
			}
			for _, key := range append(append([][]byte{}, pos...), fresh...) {
				if !s.Contains(key) {
					t.Fatalf("false negative for %q after rebuild", key)
				}
			}
			// Re-adding an existing member must not wedge the rebuild
			// (xor dedupes; phbf tolerates duplicates natively).
			s.Add(pos[0])
			s.WaitRebuilds()
			if got := s.Stats().RebuildErrors; got != 0 {
				t.Fatalf("duplicate Add caused %d rebuild errors", got)
			}
		})
	}
}

// TestStaticBackendSnapshotAbsorbsPending verifies the durability
// contract with rebuilds disabled: keys still pending at Save time ride
// the keys frames of a full container and the pending-keys frame of a
// filter-only one, both restores answer them, and Save itself rebuilds
// nothing.
func TestStaticBackendSnapshotAbsorbsPending(t *testing.T) {
	for _, backend := range staticBackendsUnderTest(t) {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			s, pos, _ := newSet(t, 1500, Config{Shards: 4, Backend: backend, RebuildThreshold: -1})
			var fresh [][]byte
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("absent-%06d", 600000+i))
				fresh = append(fresh, k)
				s.Add(k)
			}
			pending := s.Stats().Pending
			if pending == 0 {
				t.Fatal("expected pending keys with rebuilds disabled")
			}
			for _, g := range []*Set{snapshotRoundtrip(t, s), filterOnlyRoundtrip(t, s)} {
				for _, key := range append(append([][]byte{}, pos...), fresh...) {
					if !g.Contains(key) {
						t.Fatalf("snapshot dropped acked key %q", key)
					}
				}
				if got := g.Stats().Pending; got != pending {
					t.Fatalf("restored set holds %d pending keys, want %d", got, pending)
				}
			}
			if st := s.Stats(); st.Pending != pending || st.Rebuilds != 0 {
				t.Fatalf("Save changed the source set: %+v", st)
			}
			if snap := takeSnapshot(t, s, true); len(snap.Pending) != 0 {
				t.Fatalf("full container wrote %d pending-frame keys", len(snap.Pending))
			}
		})
	}
}

// TestBackendRestoredSetRebuildsOnDrift is the restored-set accuracy
// contract for every backend: a set restored from a full snapshot takes
// Adds of half its size in four steps and must stay as accurate over
// the known negatives as the live set taking the same Adds — it holds
// the same keys and rebuilds its shards on drift. Before snapshots
// carried keys, a restored HABF set climbed from 0.08% to 5.4% FPR here.
// It then chains three save → restore generations with Adds between
// them, and every acked key must answer true in each.
func TestBackendRestoredSetRebuildsOnDrift(t *testing.T) {
	const n = 20000
	for _, backend := range backendsUnderTest() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			live, pos, negKeys := newSet(t, n, Config{Shards: 8, Backend: backend})
			restored := snapshotRoundtrip(t, live)
			fpr := func(s *Set) float64 {
				fp := 0
				for _, ok := range s.ContainsBatch(negKeys) {
					if ok {
						fp++
					}
				}
				return float64(fp) / float64(len(negKeys))
			}
			acked := append([][]byte{}, pos...)
			const steps, perStep = 4, n / 8
			for step := 0; step < steps; step++ {
				for i := 0; i < perStep; i++ {
					key := []byte(fmt.Sprintf("member-%06d", n+step*perStep+i))
					acked = append(acked, key)
					live.Add(key)
					if err := restored.Add(key); err != nil {
						t.Fatal(err)
					}
				}
				live.WaitRebuilds()
				restored.WaitRebuilds()
			}
			liveFPR, restoredFPR := fpr(live), fpr(restored)
			t.Logf("known-negative FPR after %d Adds: live %.3f%%, restored %.3f%%", steps*perStep, 100*liveFPR, 100*restoredFPR)
			if restoredFPR > 2*liveFPR+0.001 {
				t.Errorf("restored FPR %.3f%% above 2× live %.3f%% + 0.1 pp", 100*restoredFPR, 100*liveFPR)
			}
			st, lst := restored.Stats(), live.Stats()
			if st.Rebuilds == 0 || st.RebuildErrors != 0 {
				t.Errorf("restored set ran %d rebuilds (%d errors); want drift rebuilds", st.Rebuilds, st.RebuildErrors)
			}
			if st.Keys != lst.Keys {
				t.Errorf("restored set holds %d keys, live %d", st.Keys, lst.Keys)
			}

			// Three generations: each restore carries every earlier acked
			// key and keeps taking Adds.
			gen := restored
			for g := 2; g <= 3; g++ {
				gen = snapshotRoundtrip(t, gen)
				for _, key := range acked {
					if !gen.Contains(key) {
						t.Fatalf("generation %d lost acked key %q", g, key)
					}
				}
				for i := 0; i < 40; i++ {
					key := []byte(fmt.Sprintf("absent-%06d", 800000+100*g+i))
					acked = append(acked, key)
					if err := gen.Add(key); err != nil {
						t.Fatal(err)
					}
				}
				gen.WaitRebuilds()
			}
			for _, key := range acked {
				if !gen.Contains(key) {
					t.Fatalf("generation 3 lost acked key %q", key)
				}
			}
		})
	}
}

// TestBackendReadOnlySaveStaysReadOnly: a read-only set holds no keys,
// so even a full save of it writes the filter-only form. That file
// restores read-only again, with every member and pending Add still
// answering true, instead of as a writable set whose first rebuild
// would keep only the keys added after the load.
func TestBackendReadOnlySaveStaysReadOnly(t *testing.T) {
	for _, backend := range backendsUnderTest() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			s, pos, _ := newSet(t, 2000, Config{Shards: 4, Backend: backend, RebuildThreshold: -1})
			acked := append([][]byte{}, pos...)
			for i := 0; i < 30; i++ {
				key := []byte(fmt.Sprintf("absent-%06d", 600000+i))
				acked = append(acked, key)
				if err := s.Add(key); err != nil {
					t.Fatal(err)
				}
			}
			ro := filterOnlyRoundtrip(t, s)
			data := saveSnapshot(t, ro, true)
			if want := saveSnapshot(t, s, false); !bytes.Equal(data, want) {
				t.Fatal("full save of a read-only set differs from the filter-only save it was loaded from")
			}
			snap, err := snapshot.Unmarshal(data)
			if err != nil {
				t.Fatal(err)
			}
			g, err := Restore(snap)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Stats().ReadOnly {
				t.Fatal("full save of a read-only set restored writable")
			}
			epoch := g.Epoch()
			for i := 0; i < 100; i++ {
				if err := g.Add([]byte(fmt.Sprintf("late-%06d", i))); !errors.Is(err, ErrReadOnly) {
					t.Fatalf("Add on the re-restored set returned %v, want ErrReadOnly", err)
				}
			}
			g.WaitRebuilds()
			if g.Epoch() != epoch {
				t.Fatalf("refused Adds moved the epoch: %d → %d", epoch, g.Epoch())
			}
			for _, key := range acked {
				if !g.Contains(key) {
					t.Fatalf("re-restored read-only set lost acked key %q", key)
				}
			}
		})
	}
}

// TestPendingFrameRoundtripsDeterministically pins the container-level
// shape of the pending-keys section a filter-only snapshot carries:
// sorted keys, byte-identical re-serialization, and the flag bit
// round-tripping through Unmarshal.
func TestPendingFrameRoundtripsDeterministically(t *testing.T) {
	static := staticBackendsUnderTest(t)
	if len(static) == 0 {
		t.Skip("no static backend in this FILTERCORE_BACKEND run")
	}
	s, _, _ := newSet(t, 800, Config{Shards: 2, Backend: static[0], RebuildThreshold: -1})
	for i := 0; i < 30; i++ {
		s.Add([]byte(fmt.Sprintf("absent-%06d", 700000+i)))
	}
	data := saveSnapshot(t, s, false)
	if again := saveSnapshot(t, s, false); !bytes.Equal(again, data) {
		t.Fatal("two filter-only saves of an idle set differ")
	}
	decoded, err := snapshot.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !decoded.Meta.HasPending || uint64(len(decoded.Pending)) != s.Stats().Pending {
		t.Fatalf("pending section did not round-trip: HasPending=%v, %d keys (want %d)",
			decoded.Meta.HasPending, len(decoded.Pending), s.Stats().Pending)
	}
	for i := 1; i < len(decoded.Pending); i++ {
		if string(decoded.Pending[i-1]) >= string(decoded.Pending[i]) {
			t.Fatal("pending keys not in strict sorted order")
		}
	}
	again, err := decoded.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("pending-keys container re-serialization is not byte-identical")
	}
}

// TestBackendMismatchFailsLoudly: a container stamped with one backend
// kind must not decode through another backend's frame decoder.
func TestBackendMismatchFailsLoudly(t *testing.T) {
	requireBackend(t, "bloom")
	s, _, _ := newSet(t, 1000, Config{Shards: 4, Backend: "bloom"})
	snap := takeSnapshot(t, s, true)
	// Unknown kind: registry lookup must reject it.
	snap.Meta.Backend = 0xEE
	if _, err := Restore(snap); err == nil {
		t.Fatal("Restore accepted an unknown backend kind")
	}
	// Cross-backend: HABF kind over bloom frames must fail at frame
	// decode (wrong wire magic), not misparse.
	snap.Meta.Backend = 0
	if _, err := Restore(snap); err == nil {
		t.Fatal("Restore misdecoded bloom frames as HABF")
	}
}

// TestBackendsConcurrentAddAndQuery is the -race workout across
// backends: readers, writers and rebuilds on the same set, including
// the static pending path.
func TestBackendsConcurrentAddAndQuery(t *testing.T) {
	for _, backend := range backendsUnderTest() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			s, pos, negKeys := newSet(t, 3000, Config{Shards: 8, Backend: backend, RebuildThreshold: 0.01})
			const writers = 2
			const perWriter = 250
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						s.Add([]byte(fmt.Sprintf("hot-%s-%d-%06d", backend, w, i)))
					}
				}(w)
			}
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					batch := make([][]byte, 0, 64)
					for i := 0; i < 1500; i++ {
						key := pos[(i*7+r)%len(pos)]
						if !s.Contains(key) {
							t.Errorf("false negative for %q under concurrency", key)
							return
						}
						batch = append(batch, key, negKeys[(i*3+r)%len(negKeys)])
						if len(batch) == cap(batch) {
							for j, ok := range s.ContainsBatch(batch) {
								if j%2 == 0 && !ok {
									t.Errorf("batch false negative under concurrency")
									return
								}
							}
							batch = batch[:0]
						}
					}
				}(r)
			}
			wg.Wait()
			s.WaitRebuilds()
			if st := s.Stats(); st.RebuildErrors != 0 {
				t.Fatalf("rebuild errors: %+v", st)
			}
			for w := 0; w < writers; w++ {
				for i := 0; i < perWriter; i++ {
					key := []byte(fmt.Sprintf("hot-%s-%d-%06d", backend, w, i))
					if !s.Contains(key) {
						t.Fatalf("added key %q lost", key)
					}
				}
			}
			// Save under no traffic must capture everything, pending
			// included.
			g := snapshotRoundtrip(t, s)
			for w := 0; w < writers; w++ {
				for i := 0; i < perWriter; i++ {
					key := []byte(fmt.Sprintf("hot-%s-%d-%06d", backend, w, i))
					if !g.Contains(key) {
						t.Fatalf("restored set lost %q", key)
					}
				}
			}
		})
	}
}

// TestSnapshotUnderConcurrentAddsAllBackends stresses Save racing
// writers for every backend: every Add acked before Save begins must be
// in the snapshot (a static backend's pending keys ride the keys frames).
func TestSnapshotUnderConcurrentAddsAllBackends(t *testing.T) {
	for _, backend := range backendsUnderTest() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			s, _, _ := newSet(t, 2000, Config{Shards: 4, Backend: backend, RebuildThreshold: 0.01})
			// Acked before snapshot: must all be captured.
			var acked [][]byte
			for i := 0; i < 150; i++ {
				k := []byte(fmt.Sprintf("acked-%06d", i))
				acked = append(acked, k)
				s.Add(k)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
						s.Add([]byte(fmt.Sprintf("racing-%06d", i)))
					}
				}
			}()
			var buf bytes.Buffer
			err := s.WriteSnapshot(&buf, true)
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := snapshot.Unmarshal(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			g, err := Restore(decoded)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range acked {
				if !g.Contains(key) {
					t.Fatalf("snapshot dropped acked key %q", key)
				}
			}
			s.WaitRebuilds()
		})
	}
}
