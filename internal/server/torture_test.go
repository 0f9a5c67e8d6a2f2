package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"testing"

	habf "repro"
)

// Goroutine-safe HTTP helpers for the torture test: the shared
// containsRaw/containsJSON helpers call t.Fatal, which must not run off
// the test goroutine, so these return errors instead.

func httpContains(base string, key []byte) (bool, error) {
	resp, err := http.Post(base+"/v1/contains", "application/octet-stream", bytes.NewReader(key))
	if err != nil {
		return false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("contains: HTTP %d: %s", resp.StatusCode, body)
	}
	return string(body) == "1", nil
}

func httpAdd(base string, key []byte) error {
	resp, err := http.Post(base+"/v1/add", "application/octet-stream", bytes.NewReader(key))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("add: HTTP %d", resp.StatusCode)
	}
	return nil
}

func httpContainsBatch(base string, keys [][]byte) ([]bool, error) {
	body, err := json.Marshal(map[string]any{"keys": keys})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/v1/contains_batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("contains_batch: HTTP %d: %s", resp.StatusCode, out)
	}
	var decoded struct {
		Present []bool `json:"present"`
	}
	if err := json.Unmarshal(out, &decoded); err != nil {
		return nil, fmt.Errorf("contains_batch: %v in %q", err, out)
	}
	return decoded.Present, nil
}

// httpSnapshot checkpoints the server to its Config.SnapshotPath.
func httpSnapshot(base string) error {
	resp, err := http.Post(base+"/v1/snapshot", "application/json", nil)
	if err != nil {
		return err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot: HTTP %d: %s", resp.StatusCode, out)
	}
	return nil
}

// TestServerTorture is the end-to-end stress cycle per backend, meant
// for the race detector: concurrent contains (raw and batch forms),
// Adds and mid-traffic snapshots against one live HTTP server, then a
// restore → serve → add → snapshot chain on the restored set. The
// restored set gets its keys back from the snapshot, so its
// post-restore Adds ride the next snapshot's keys frames like any
// other, and the final restore must hold every key acked at any point
// in the cycle.
func TestServerTorture(t *testing.T) {
	for _, backend := range backendsUnderTest(t) {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			filter, data := newBackendFilter(t, backend, 1200)
			dir := t.TempDir()
			gen1Path := filepath.Join(dir, "gen1.snap")
			_, hs := newTestServer(t, filter, Config{SnapshotPath: gen1Path})

			const (
				writers   = 2
				perWriter = 100
				readers   = 3
			)
			tortureKey := func(w, i int) []byte {
				return []byte(fmt.Sprintf("tort-%s-%d-%06d", backend, w, i))
			}

			// Sized for the worst case: one error per writer and reader
			// plus up to three from the snapshot goroutine (which keeps
			// looping after a restore failure) — an undersized buffer
			// would block a sender before its wg.Done and hang the test
			// instead of reporting the failures.
			errc := make(chan error, writers+readers+3)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						key := tortureKey(w, i)
						if err := httpAdd(hs.URL, key); err != nil {
							errc <- err
							return
						}
						// Acked means queryable, immediately, even mid-churn.
						ok, err := httpContains(hs.URL, key)
						if err != nil {
							errc <- err
							return
						}
						if !ok {
							errc <- fmt.Errorf("acked add %q not queryable", key)
							return
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					batch := make([][]byte, 0, 32)
					for i := 0; i < 400; i++ {
						member := data.Positives[(i*13+r)%len(data.Positives)]
						ok, err := httpContains(hs.URL, member)
						if err != nil {
							errc <- err
							return
						}
						if !ok {
							errc <- fmt.Errorf("false negative for member %q under torture", member)
							return
						}
						batch = append(batch, member, data.Negatives[(i*7+r)%len(data.Negatives)])
						if len(batch) == cap(batch) {
							got, err := httpContainsBatch(hs.URL, batch)
							if err != nil {
								errc <- err
								return
							}
							for j := 0; j < len(got); j += 2 {
								if !got[j] {
									errc <- fmt.Errorf("batch false negative under torture")
									return
								}
							}
							batch = batch[:0]
						}
					}
				}(r)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Snapshots racing the writers: each must be internally
				// consistent (Load validates CRCs and restores cleanly).
				for i := 0; i < 3; i++ {
					if err := httpSnapshot(hs.URL); err != nil {
						errc <- err
						return
					}
					if _, err := habf.LoadFile(gen1Path); err != nil {
						errc <- fmt.Errorf("mid-traffic snapshot %d does not restore: %w", i, err)
					}
				}
			}()
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}

			// Every write acked: the post-traffic snapshot must hold all of
			// them.
			if err := httpSnapshot(hs.URL); err != nil {
				t.Fatal(err)
			}
			restored, err := habf.LoadFile(gen1Path)
			if err != nil {
				t.Fatal(err)
			}

			// Serve the restored set and add through it.
			gen2Path := filepath.Join(dir, "gen2.snap")
			_, hs2 := newTestServer(t, restored, Config{SnapshotPath: gen2Path})
			var postRestore [][]byte
			for i := 0; i < 60; i++ {
				key := []byte(fmt.Sprintf("tort-post-%s-%06d", backend, i))
				postRestore = append(postRestore, key)
				if err := httpAdd(hs2.URL, key); err != nil {
					t.Fatal(err)
				}
			}
			if err := httpSnapshot(hs2.URL); err != nil {
				t.Fatalf("snapshot of restored set with post-restore adds: %v", err)
			}

			final, err := habf.LoadFile(gen2Path)
			if err != nil {
				t.Fatal(err)
			}
			if final.Backend() != backend {
				t.Fatalf("final restore backend %q, want %q", final.Backend(), backend)
			}
			for _, key := range data.Positives {
				if !final.Contains(key) {
					t.Fatalf("final restore lost member %q", key)
				}
			}
			for w := 0; w < writers; w++ {
				for i := 0; i < perWriter; i++ {
					if key := tortureKey(w, i); !final.Contains(key) {
						t.Fatalf("final restore lost torture key %q", key)
					}
				}
			}
			for _, key := range postRestore {
				if !final.Contains(key) {
					t.Fatalf("final restore lost post-restore key %q", key)
				}
			}
		})
	}
}
