// Package benchfmt defines the machine-readable benchmark result format
// shared by the habfbench load generator (which writes it) and the
// benchgate CI tool (which compares a fresh run against a committed
// baseline). The format is deliberately tiny: a flat list of named
// results with ns/op and latency percentiles, plus enough environment
// metadata to judge whether two files are comparable at all.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Schema is bumped when the file layout changes incompatibly.
const Schema = 1

// Result is one measured scenario.
type Result struct {
	// Name identifies the scenario, e.g. "net/contains/binary".
	// Names are the join key for baseline comparison, so they must stay
	// stable across runs and must not embed machine-dependent values.
	Name string `json:"name"`
	// Clients is the number of concurrent load-generator clients.
	Clients int `json:"clients,omitempty"`
	// Ops is the number of operations measured.
	Ops int64 `json:"ops"`
	// NsPerOp is wall time per operation across all clients — the
	// throughput-side number the regression gate compares.
	NsPerOp float64 `json:"ns_per_op"`
	// QPS is operations per wall-clock second (redundant with NsPerOp,
	// kept for human readers).
	QPS float64 `json:"qps"`
	// Latency percentiles over per-request round-trip times, in
	// nanoseconds. Zero when the scenario has no per-request latency
	// (e.g. in-process loops).
	P50Ns float64 `json:"p50_ns,omitempty"`
	P95Ns float64 `json:"p95_ns,omitempty"`
	P99Ns float64 `json:"p99_ns,omitempty"`
}

// File is a benchmark result document.
type File struct {
	Schema    int      `json:"schema"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	CPUs      int      `json:"cpus"`
	Note      string   `json:"note,omitempty"`
	Results   []Result `json:"results"`
}

// Write marshals f to path, indented for reviewable diffs.
func Write(path string, f File) error {
	f.Schema = Schema
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("benchfmt: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Read unmarshals path.
func Read(path string) (File, error) {
	var f File
	b, err := os.ReadFile(path)
	if err != nil {
		return f, fmt.Errorf("benchfmt: %w", err)
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	if f.Schema != Schema {
		return f, fmt.Errorf("benchfmt: %s: schema %d, want %d", path, f.Schema, Schema)
	}
	return f, nil
}

// Regression is one gate finding.
type Regression struct {
	Name       string
	BaselineNs float64
	CurrentNs  float64
	// Ratio is CurrentNs / BaselineNs; 0 when the scenario is missing
	// from the current run.
	Ratio   float64
	Missing bool
}

func (r Regression) String() string {
	if r.Missing {
		return fmt.Sprintf("%s: present in baseline but missing from current run", r.Name)
	}
	return fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op (%.2fx)",
		r.Name, r.CurrentNs, r.BaselineNs, r.Ratio)
}

// Compare checks every baseline scenario against the current run and
// returns the ones that regressed beyond tolerance (current > tolerance
// × baseline) or disappeared. Scenarios only present in the current run
// are ignored — new benchmarks are not regressions. Tolerance is a
// ratio, e.g. 2.5 fails only on a >2.5× slowdown; generous on purpose,
// because CI runners are noisy and the gate exists to catch structural
// regressions, not scheduler jitter.
func Compare(baseline, current File, tolerance float64) []Regression {
	cur := make(map[string]Result, len(current.Results))
	for _, r := range current.Results {
		cur[r.Name] = r
	}
	var out []Regression
	for _, b := range baseline.Results {
		c, ok := cur[b.Name]
		if !ok {
			out = append(out, Regression{Name: b.Name, BaselineNs: b.NsPerOp, Missing: true})
			continue
		}
		if b.NsPerOp > 0 && c.NsPerOp > tolerance*b.NsPerOp {
			out = append(out, Regression{
				Name:       b.Name,
				BaselineNs: b.NsPerOp,
				CurrentNs:  c.NsPerOp,
				Ratio:      c.NsPerOp / b.NsPerOp,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Percentile returns the p-th percentile (0..100) of samples, which it
// sorts in place. Zero samples yield 0.
func Percentile(samples []int64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(p / 100 * float64(len(samples)-1))
	return float64(samples[idx])
}
