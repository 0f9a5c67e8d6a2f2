// Network serving: HABF behind an HTTP API. The previous examples use
// the filter in-process; this one runs the full habfserved serving layer
// — endpoints, Prometheus metrics, crash-safe snapshots — against a
// live HTTP listener, the deployment shape a production filter service
// actually has.
//
// The example starts an in-process server on a loopback port, queries
// members and known negatives over HTTP (single-key JSON, raw
// octet-stream, and a batch request), streams new members in through
// /v1/add from several goroutines at once, checkpoints the filter
// through /v1/snapshot, and restores the snapshot with the public
// loader to prove the network round trip preserves the
// zero-false-negative contract.
//
// Counts printed are deterministic (fixed seeds, fixed workload);
// timings and ports depend on the machine and go to stderr.
//
//	go run ./examples/netserve
package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	habf "repro"
	"repro/internal/dataset"
	"repro/internal/server"
)

const (
	nMembers = 20000 // initial positive set
	nOutside = 20000 // known negative keys, zipf-weighted
	nNewKeys = 1200  // members streamed in over /v1/add
	nWriters = 4     // concurrent add goroutines
	seed     = 17
)

func main() {
	data := dataset.YCSB(nMembers, nOutside, seed)
	costs := dataset.ZipfCosts(nOutside, 1.2, seed)
	negatives := make([]habf.WeightedKey, nOutside)
	for i := range negatives {
		negatives[i] = habf.WeightedKey{Key: data.Negatives[i], Cost: costs[i]}
	}

	start := time.Now()
	filter, err := habf.NewSharded(data.Positives, negatives, uint64(10*nMembers), habf.WithShards(8))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "built %s in %v\n", filter.Name(), time.Since(start).Round(time.Millisecond))

	snapPath := filepath.Join(os.TempDir(), fmt.Sprintf("netserve-%d.snap", os.Getpid()))
	defer os.Remove(snapPath)
	srv, err := server.New(server.Config{Filter: filter, SnapshotPath: snapPath})
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(l)
	defer hs.Close()
	base := "http://" + l.Addr().String()
	fmt.Fprintf(os.Stderr, "serving on %s\n", base)

	// Act 0: ask the server what it is serving. The reported backend and
	// filter name make every artifact produced against this server
	// self-describing (habfbench -net prints the same line).
	srvName, srvBackend := serverIdentity(base)
	fmt.Printf("server reports backend %q (%s)\n", srvBackend, srvName)

	// Act 1: single-key queries over HTTP, both body forms. Members must
	// always answer true; known negatives are counted as the observed
	// false-positive tally.
	falsePositives := 0
	for i := 0; i < 2000; i++ {
		if !containsJSON(base, data.Positives[i]) {
			log.Fatalf("false negative over HTTP: member %d", i)
		}
		if containsRaw(base, data.Negatives[i]) {
			falsePositives++
		}
	}
	fmt.Printf("queried 2000 members over HTTP: 0 false negatives\n")
	fmt.Printf("queried 2000 known negatives:   %d false positives\n", falsePositives)

	// Act 2: one batch request answers a whole mixed probe set at once.
	probes := make([][]byte, 0, 2000)
	probes = append(probes, data.Positives[2000:3000]...)
	probes = append(probes, data.Negatives[2000:3000]...)
	verdicts := containsBatch(base, probes)
	for i := 0; i < 1000; i++ {
		if !verdicts[i] {
			log.Fatalf("false negative in batch response: member %d", i)
		}
	}
	fmt.Printf("one /v1/contains_batch request, %d keys: 0 false negatives\n", len(probes))

	// Act 3: concurrent writers stream new members in over /v1/add; each
	// key must be queryable as soon as its request is acknowledged.
	var wg sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nNewKeys; i += nWriters {
				key := fmt.Sprintf("netserve-new-%06d", i)
				add(base, []byte(key))
				if !containsRaw(base, []byte(key)) {
					log.Fatalf("acked add %q not queryable", key)
				}
			}
		}(w)
	}
	wg.Wait()
	fmt.Printf("added %d new members over HTTP from %d writers: all queryable on ack\n", nNewKeys, nWriters)

	// Act 4: checkpoint through the API, restore with the public loader,
	// and re-verify every member — original and streamed — offline.
	resp, err := http.Post(base+"/v1/snapshot", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		log.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("snapshot: HTTP %d", resp.StatusCode)
	}
	restored, err := habf.LoadFile(snapPath)
	if err != nil {
		log.Fatal(err)
	}
	missed := 0
	for _, key := range data.Positives {
		if !restored.Contains(key) {
			missed++
		}
	}
	for i := 0; i < nNewKeys; i++ {
		if !restored.Contains([]byte(fmt.Sprintf("netserve-new-%06d", i))) {
			missed++
		}
	}
	fmt.Printf("snapshot → restore: %d members verified, %d false negatives\n", nMembers+nNewKeys, missed)
}

func serverIdentity(base string) (name, backend string) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Name    string `json:"name"`
		Backend string `json:"backend"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	return st.Name, st.Backend
}

func containsJSON(base string, key []byte) bool {
	body, _ := json.Marshal(map[string]any{"key": key})
	resp, err := http.Post(base+"/v1/contains", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Present bool `json:"present"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	return out.Present
}

func containsRaw(base string, key []byte) bool {
	resp, err := http.Post(base+"/v1/contains", "application/octet-stream", bytes.NewReader(key))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(b) == "1"
}

func containsBatch(base string, keys [][]byte) []bool {
	enc := make([]string, len(keys))
	for i, k := range keys {
		enc[i] = base64.StdEncoding.EncodeToString(k)
	}
	body, _ := json.Marshal(map[string]any{"keys": enc})
	resp, err := http.Post(base+"/v1/contains_batch", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Present []bool `json:"present"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	return out.Present
}

func add(base string, key []byte) {
	resp, err := http.Post(base+"/v1/add", "application/octet-stream", bytes.NewReader(key))
	if err != nil {
		log.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		log.Fatalf("add: HTTP %d", resp.StatusCode)
	}
}
