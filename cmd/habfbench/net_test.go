package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/benchfmt"
)

// smallNet is a self-test configuration small enough for a unit test.
func smallNet(t *testing.T) netConfig {
	return netConfig{
		proto:     "all",
		backends:  "habf,bloom",
		keys:      2000,
		clients:   2,
		ops:       2000,
		batch:     64,
		shards:    4,
		dist:      "zipfian",
		seed:      1,
		benchjson: filepath.Join(t.TempDir(), "serve.json"),
	}
}

// TestNetScenarioMatrix runs the -net self-test end to end and pins its
// scenario set: the transport rows once, on the first backend, and two
// rows for every other backend. Every loop fails the run on a false
// negative, so a passing run also means zero false negatives.
func TestNetScenarioMatrix(t *testing.T) {
	cfg := smallNet(t)
	if err := runNet(cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := benchfmt.Read(cfg.benchjson)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range f.Results {
		got = append(got, r.Name)
		if r.Ops <= 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: ops=%d ns/op=%.0f, want both positive", r.Name, r.Ops, r.NsPerOp)
		}
	}
	want := []string{
		"direct/contains_batch",
		"net/contains",
		"net/contains_batch",
		"net/contains/binary",
		"net/contains_batch/binary",
		"direct/contains_batch/bloom",
		"net/contains_batch/binary/bloom",
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("scenarios:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestNetRejectsServeOnlyFlags pins that -tune and -writers belong to
// -serve: -net refuses them instead of silently ignoring them.
func TestNetRejectsServeOnlyFlags(t *testing.T) {
	for name, mut := range map[string]func(*netConfig){
		"tune":    func(c *netConfig) { c.tune = "k=4" },
		"writers": func(c *netConfig) { c.writers = 1 },
	} {
		cfg := smallNet(t)
		mut(&cfg)
		err := runNet(cfg, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-serve") {
			t.Errorf("-net -%s: err %v, want a rejection pointing to -serve", name, err)
		}
	}
}

// TestNetRemoteBadBinaryAddr pins that a malformed -addr-binary fails
// the run with a dial error instead of panicking: the address goes to
// wire.Dial as given.
func TestNetRemoteBadBinaryAddr(t *testing.T) {
	stats := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"name":"remote","backend":"habf"}`)
	}))
	defer stats.Close()
	cfg := smallNet(t)
	cfg.addr = strings.TrimPrefix(stats.URL, "http://")
	cfg.proto = "binary"
	cfg.addrBin = ","
	if err := runNet(cfg, io.Discard); err == nil {
		t.Fatal("-addr-binary \",\": run succeeded, want a dial error")
	}
}
