package filtercore_test

import (
	"fmt"
	"testing"

	"repro/internal/filtercore"
	"repro/internal/habf"
)

// TestTuningDefaultsRoundTrip is the schema conformance contract CI runs
// per backend: the default tuning renders canonically and re-parses to
// itself, the empty string means defaults, and the schema rejects every
// class of bad input (unknown knob, duplicate, out-of-domain value,
// malformed assignment) loudly — the restore path depends on that to
// refuse corrupted or forged tuning frames.
func TestTuningDefaultsRoundTrip(t *testing.T) {
	for _, f := range backendsUnderTest(t) {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			def := f.DefaultTuning()
			if def.String() == "" {
				t.Fatalf("backend has no tuning schema (default %q)", def.String())
			}
			reparsed, err := f.ParseTuning(def.String())
			if err != nil {
				t.Fatalf("default tuning %q does not re-parse: %v", def.String(), err)
			}
			if reparsed.String() != def.String() {
				t.Errorf("round trip changed the default: %q -> %q", def.String(), reparsed.String())
			}
			empty, err := f.ParseTuning("")
			if err != nil {
				t.Fatalf("empty tuning rejected: %v", err)
			}
			if empty.String() != def.String() {
				t.Errorf("empty tuning %q != default %q", empty.String(), def.String())
			}

			if _, err := f.ParseTuning("no-such-knob=1"); err == nil {
				t.Error("unknown knob accepted")
			}
			knobs := f.TuningSchema.Knobs()
			if len(knobs) == 0 {
				t.Fatal("schema reports no knobs")
			}
			k := knobs[0]
			dup := fmt.Sprintf("%s=%s,%s=%s", k.Name, k.Default, k.Name, k.Default)
			if _, err := f.ParseTuning(dup); err == nil {
				t.Errorf("duplicate knob accepted: %q", dup)
			}
			if _, err := f.ParseTuning(k.Name); err == nil {
				t.Errorf("malformed assignment accepted: %q", k.Name)
			}
			for _, k := range knobs {
				var bad string
				switch k.Type {
				case filtercore.KnobInt:
					bad = fmt.Sprintf("%s=%d", k.Name, int64(k.Max)+1)
				case filtercore.KnobFloat:
					bad = fmt.Sprintf("%s=%v", k.Name, k.Max+1)
				case filtercore.KnobEnum:
					bad = k.Name + "=definitely-not-a-value"
				}
				if _, err := f.ParseTuning(bad); err == nil {
					t.Errorf("out-of-domain value accepted: %q", bad)
				}
			}
		})
	}
}

// tuningGrid lists valid non-default tunings per backend — the grid
// TestBackendTuningGrid re-runs the core backend contract over.
var tuningGrid = map[string][]string{
	"habf":  {"k=4", "cellbits=5", "k=4,cellbits=5"},
	"bloom": {"k=8", "k=12"},
	"xor":   {"width=9", "width=16"},
	"wbf":   {"cache=0.2", "k=6,maxk=10", "maxk=20"},
	"phbf":  {"groups=128", "candidates=16", "groups=32,candidates=4"},
	"lbf":   {"epochs=3", "seed=7", "model=gru,epochs=1"},
	"slbf":  {"split=0.25", "epochs=3,seed=5"},
	"adabf": {"groups=8", "groups=2,seed=9"},
}

// TestBackendTuningGrid re-runs the zero-false-negative, batch-parity
// and marshal-round-trip contracts at non-default knob settings, so a
// knob cannot work at its default and break at the values the README
// and CI advertise.
func TestBackendTuningGrid(t *testing.T) {
	pos, neg, negKeys := conformanceKeys(2000)
	for _, f := range backendsUnderTest(t) {
		f := f
		grid, ok := tuningGrid[f.Name]
		if !ok {
			t.Errorf("backend %q has no tuning grid entries — add some to tuningGrid", f.Name)
			continue
		}
		for _, tuneStr := range grid {
			tuneStr := tuneStr
			t.Run(f.Name+"/"+tuneStr, func(t *testing.T) {
				tun, err := f.ParseTuning(tuneStr)
				if err != nil {
					t.Fatalf("grid tuning rejected: %v", err)
				}
				if tun.String() == f.DefaultTuning().String() {
					t.Fatalf("grid tuning %q is the default — the grid must exercise non-default values", tuneStr)
				}
				b, err := f.Build(pos, neg, filtercore.BuildConfig{
					TotalBits: uint64(12 * len(pos)),
					Params:    habf.Params{Seed: 7},
					Tuning:    tun,
				})
				if err != nil {
					t.Fatalf("tuned build: %v", err)
				}
				for _, key := range pos {
					if !b.Contains(key) {
						t.Fatalf("false negative for %q at tuning %q", key, tuneStr)
					}
				}
				probes := append(append([][]byte{}, pos[:300]...), negKeys[:300]...)
				batch := preparedBatch(b, probes)
				for i, key := range probes {
					if want := b.Contains(key); batch[i] != want {
						t.Fatalf("probe %d: batch=%v per-key=%v at tuning %q", i, batch[i], want, tuneStr)
					}
				}
				wire, err := b.MarshalBinary()
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				got, err := f.Unmarshal(wire)
				if err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				for i, key := range probes {
					if got.Contains(key) != batch[i] {
						t.Fatalf("decoded filter disagrees on probe %d at tuning %q", i, tuneStr)
					}
				}
			})
		}
	}
}
