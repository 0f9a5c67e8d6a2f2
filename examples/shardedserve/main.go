// Sharded serving: the production shape of HABF for heavy traffic. A
// filter service holding millions of members cannot stop the world to
// absorb new keys or to rebuild: this example runs a sharded HABF as a
// live service — batched queries from several goroutines, a writer
// streaming new members in with no external locking, and background
// shard rebuilds folding those members into a re-optimized filter while
// the other shards keep serving.
//
// The second act is the restart story: the live filter is checkpointed
// with SaveFile, the process state is "killed" (the filter dropped), and
// a fresh filter is restored from the snapshot with LoadFile — a
// zero-copy load that is query-ready immediately — then re-verified
// against every member that was acknowledged before the save, including
// the ones streamed in while serving.
//
// Counts printed are deterministic (fixed seeds, fixed workload);
// throughput and timings depend on the machine and go to stderr.
//
//	go run ./examples/shardedserve
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	habf "repro"
	"repro/internal/dataset"
	"repro/internal/workload"
)

const (
	nMembers  = 30000 // initial positive set
	nOutside  = 30000 // known negative keys, zipf-weighted
	nNewKeys  = 3000  // members streamed in while serving
	nReaders  = 4     // concurrent query goroutines
	batchSize = 256
	seed      = 11
)

func main() {
	data := dataset.YCSB(nMembers, nOutside, seed)
	costs := dataset.ZipfCosts(nOutside, 1.2, seed)
	negatives := make([]habf.WeightedKey, nOutside)
	for i := range negatives {
		negatives[i] = habf.WeightedKey{Key: data.Negatives[i], Cost: costs[i]}
	}

	start := time.Now()
	s, err := habf.NewSharded(data.Positives, negatives, uint64(10*nMembers),
		habf.WithShards(8), habf.WithRebuildThreshold(0.01))
	if err != nil {
		log.Fatal(err)
	}
	buildElapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "built %s in %v\n", s.Name(), buildElapsed.Round(time.Millisecond))

	fmt.Printf("shardedserve: %s over %d members, %d weighted negatives, %d new members streamed in\n\n",
		s.Name(), nMembers, nOutside, nNewKeys)

	// Serve: readers issue zipf-skewed batches (half members, half known
	// negatives) while one writer streams new members in. No locks
	// anywhere in this function — the sharded filter handles it.
	var (
		wg          sync.WaitGroup
		falseNegs   [nReaders]int
		hits        [nReaders]int
		queriesEach = 50 * 1024
	)
	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Zipf-skewed stream, even positions negatives, odd positives.
			probes, err := workload.MixProbes(workload.Zipfian, seed+int64(r),
				queriesEach, data.Positives, data.Negatives)
			if err != nil {
				log.Fatal(err)
			}
			for lo := 0; lo < len(probes); lo += batchSize {
				batch := probes[lo : lo+batchSize]
				for i, ok := range s.ContainsBatch(batch) {
					if i%2 == 1 && !ok {
						falseNegs[r]++ // must never happen
					} else if i%2 == 0 && ok {
						hits[r]++ // false positives on known negatives
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < nNewKeys; i++ {
			s.Add([]byte(fmt.Sprintf("member-late-%06d", i)))
		}
	}()
	serveStart := time.Now()
	wg.Wait()
	elapsed := time.Since(serveStart)
	s.WaitRebuilds()

	totalQueries := nReaders * queriesEach
	fmt.Fprintf(os.Stderr, "served %d queries in %v (%.2f Mqps) with %d concurrent adds\n",
		totalQueries, elapsed.Round(time.Millisecond),
		float64(totalQueries)/elapsed.Seconds()/1e6, nNewKeys)

	fn := 0
	for _, c := range falseNegs {
		fn += c
	}
	fmt.Printf("false negatives under concurrent serve+add: %d (guaranteed 0)\n", fn)
	if fn != 0 {
		log.Fatal("zero-false-negative contract violated")
	}

	// Every streamed-in member must be queryable afterwards.
	missing := 0
	for i := 0; i < nNewKeys; i++ {
		if !s.Contains([]byte(fmt.Sprintf("member-late-%06d", i))) {
			missing++
		}
	}
	fmt.Printf("streamed members lost: %d of %d\n", missing, nNewKeys)

	st := s.Stats()
	fmt.Printf("background rebuilds: completed without blocking serving (errors: %d)\n", st.RebuildErrors)
	fmt.Printf("final state: %d members across %d shards, %.1f KiB\n",
		st.Keys, st.Shards, float64(st.SizeBits)/8/1024)
	if missing != 0 || st.RebuildErrors != 0 {
		os.Exit(1)
	}

	// Act two: save → kill → restore. Checkpoint the live filter, drop it
	// (the "crash"), and bring a replacement up from the snapshot.
	dir, err := os.MkdirTemp("", "shardedserve")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "filter.snap")

	saveStart := time.Now()
	if err := s.SaveFile(snapPath); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(snapPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "saved snapshot (%.1f KiB) in %v\n",
		float64(info.Size())/1024, time.Since(saveStart).Round(time.Microsecond))

	s = nil // "kill" the serving process's filter

	restoreStart := time.Now()
	restoredSet, err := habf.LoadFile(snapPath)
	if err != nil {
		log.Fatal(err)
	}
	restoreElapsed := time.Since(restoreStart)
	fmt.Fprintf(os.Stderr, "restored in %v (zero-copy; build took %v)\n",
		restoreElapsed.Round(time.Microsecond), buildElapsed.Round(time.Millisecond))

	// Zero-false-negative self-check over everything acknowledged before
	// the save: the original members and the streamed-in ones.
	restoredMissing := 0
	for _, key := range data.Positives {
		if !restoredSet.Contains(key) {
			restoredMissing++
		}
	}
	for i := 0; i < nNewKeys; i++ {
		if !restoredSet.Contains([]byte(fmt.Sprintf("member-late-%06d", i))) {
			restoredMissing++
		}
	}
	fmt.Printf("\nsave -> kill -> restore: members lost across restart: %d of %d (guaranteed 0)\n",
		restoredMissing, nMembers+nNewKeys)
	if restoredMissing != 0 {
		log.Fatal("zero-false-negative contract violated after restore")
	}

	// The restored filter is live: the snapshot carried its keys, so it
	// keeps absorbing new members and rebuilds on drift like the original.
	postOK := restoredSet.Add([]byte("member-post-restore")) == nil &&
		restoredSet.Contains([]byte("member-post-restore"))
	fmt.Printf("restored filter accepts new members: %v\n", postOK)
	rst := restoredSet.Stats()
	fmt.Printf("restored state: %d members across %d shards, rebuilt from the snapshot's keys on drift\n",
		rst.Keys, rst.Shards)
	if !postOK {
		os.Exit(1)
	}
}
