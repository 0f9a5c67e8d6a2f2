package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smoke is every workload at 20k keys in a window of one slice: long
// enough for ten samples beyond every p99, short enough that the whole file
// runs in seconds.
var smoke = config{seed: 1, warmup: 100 * time.Millisecond, window: raceScale * 600 * time.Millisecond,
	slice: raceScale * 600 * time.Millisecond, members: 20_000}

func checkMetrics(t *testing.T, workload string, got map[string]sample, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		if _, ok := got[d.name]; !ok {
			t.Errorf("%s: no %s", workload, d.name)
		}
	}
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(got), len(defs))
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, sp := range specs {
		chk := &checker{}
		got, err := runWorkload(sp, smoke, chk, nil)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if err := chk.err(); err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		checkMetrics(t, sp.name, got, endToEnd)
		for _, d := range endToEnd {
			if v := got[d.name].value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", sp.name, d.name, v)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload traced")
	}
	tr := newTracer()
	chk := &checker{}
	for _, sp := range specs {
		got, err := runWorkload(sp, smoke, chk, tr)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		checkMetrics(t, sp.name, got, perLayer)
	}
	if err := chk.err(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path, smoke.seed); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Spans) == 0 {
		t.Fatal("no spans written")
	}
}

// TestLedger checks the self-time arithmetic on one hand-made binary batch
// call of 4 keys: the call took 100, its server round trip 90, of which the
// socket took 20, the codec 10 and the shard 40, of which hashing took 5
// and the backends 25. The in-process steps were replayed twice, over 8
// keys, so their spans are twice as long.
func TestLedger(t *testing.T) {
	const req = 1
	path := pathOf(rwChurn)
	dur := [nSteps]int64{stHashes: 10, stFiltercore: 50, stShardBatch: 80, stShardContains: 100,
		stWireContains: 24, stWireBatch: 20, stSocket: 20, stServerContains: 30, stServerBatch: 90}
	spans := []span{{Req: req, ID: req, Name: "call.batch", End: 100, Keys: 4, OnPath: true}}
	for s := step(0); s < nSteps; s++ {
		parent := uint64(req)
		if p := path[s]; p >= 0 {
			parent = uint64(10 + p)
		}
		keys := 8
		switch s {
		case stSocket, stServerContains:
			keys = 1
		case stServerBatch:
			keys = 4
		}
		spans = append(spans, span{Req: req, ID: uint64(10 + s), Parent: parent, Name: stepNames[s],
			End: dur[s], Keys: keys, OnPath: path[s] != offPath})
	}
	spans = append(spans,
		span{Req: 2, ID: 2, Name: "shard.add", End: 300},
		span{Req: 3, ID: 3, Name: "snapshot.save", End: 2e6},
		span{Req: 4, ID: 4, Name: "snapshot.load", End: 1e6})
	m, err := ledger(spans)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"hashes.base_ns_per_key":      5.0 / 4,
		"filtercore.probe_ns_per_key": 25.0 / 4,
		"shard.batch_ns_per_key":      40.0 / 4,
		"shard.self_ns_per_key":       10.0 / 4,
		"shard.contains_ns":           50.0 / 4,
		"wire.batch_codec_ns_per_key": 10.0 / 4,
		"wire.contains_codec_ns":      12.0 / 4,
		"socket.rtt_us":               20.0 / 1e3,
		"server.self_us":              20.0 / 1e3, // 90 - 20 - 10 - 40
		"shard.add_ns":                300,
		"snapshot.save_ms":            2,
		"snapshot.load_ms":            1,
		"trace.unattributed_share":    0.1, // (100 - 90) / 100
	} {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metrics in step
// with what the program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, specs[i].name)
		}
	}
	for _, set := range []struct {
		doc  []struct{ Name, Unit string }
		defs []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(set.doc) != len(set.defs) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in the program", len(set.doc), len(set.defs))
		}
		for i, m := range set.doc {
			if m.Name != set.defs[i].name || m.Unit != set.defs[i].unit {
				t.Errorf("metric %d: %s %s in BENCHMARK.json, %s %s in the program", i, m.Name, m.Unit, set.defs[i].name, set.defs[i].unit)
			}
		}
	}
}
