package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// tiny is a fast configuration for smoke tests: 2k Shalla / 5k YCSB keys.
var tiny = Config{Scale: 0.05, Seed: 1}

func TestAllRegistered(t *testing.T) {
	ids := All()
	want := []string{"abl", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "incr", "lsm", "rel"}
	if len(ids) != len(want) {
		t.Fatalf("All() = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("All() = %v, want %v", ids, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if err := Run("fig99", tiny, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTableFprint(t *testing.T) {
	tab := Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"x", "demo", "a", "1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output %q missing %q", out, want)
		}
	}
}

// parse reads a formatted cell back into a float.
func parse(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestFig08BoundHolds(t *testing.T) {
	tables := Fig08(tiny)
	if len(tables) != 2 {
		t.Fatalf("Fig08 returned %d tables", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Fatalf("%s has no rows", tab.ID)
		}
		for _, row := range tab.Rows {
			if row[4] != "true" {
				t.Errorf("%s: bound violated at %s: real %s > bound %s",
					tab.ID, row[0], row[2], row[3])
			}
			// Optimization must never make things worse.
			if parse(t, row[2]) > parse(t, row[1])+1e-9 {
				t.Errorf("%s: F*bf %s exceeds Fbf %s", tab.ID, row[2], row[1])
			}
		}
	}
}

func TestFig09Shapes(t *testing.T) {
	tables := Fig09(tiny)
	if len(tables) != 3 {
		t.Fatalf("Fig09 returned %d tables", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Fatalf("%s empty", tab.ID)
		}
		for _, row := range tab.Rows {
			for _, cell := range row[1:] {
				if cell == "err" {
					t.Errorf("%s row %v has error cell", tab.ID, row)
				}
			}
		}
	}
}

func TestFig10HABFBeatsBFOnYCSB(t *testing.T) {
	tables := Fig10(tiny)
	var panel *Table
	for i := range tables {
		if tables[i].ID == "fig10c" {
			panel = &tables[i]
		}
	}
	if panel == nil {
		t.Fatal("fig10c missing")
	}
	// Column order: space, bits/key, HABF, f-HABF, BF, Xor.
	wins := 0
	for _, row := range panel.Rows {
		habfV, bfV := parse(t, row[2]), parse(t, row[4])
		if habfV <= bfV {
			wins++
		}
	}
	if wins < len(panel.Rows)-1 {
		t.Errorf("HABF beat BF on only %d/%d YCSB points", wins, len(panel.Rows))
	}
}

func TestFig11HABFWinsUnderSkew(t *testing.T) {
	tables := Fig11(tiny)
	for _, tab := range tables {
		if tab.ID != "fig11a" && tab.ID != "fig11c" {
			continue
		}
		wins := 0
		for _, row := range tab.Rows {
			habfV := parse(t, row[2])
			bfV := parse(t, row[4])
			if habfV <= bfV {
				wins++
			}
		}
		if wins < len(tab.Rows)-1 {
			t.Errorf("%s: HABF beat BF on only %d/%d points", tab.ID, wins, len(tab.Rows))
		}
	}
}

func TestFig12Ordering(t *testing.T) {
	tables := Fig12(tiny)
	for _, tab := range tables {
		vals := map[string]float64{}
		for _, row := range tab.Rows {
			if row[1] == "err" {
				t.Errorf("%s: %s errored", tab.ID, row[0])
				continue
			}
			vals[row[0]] = parse(t, row[1])
		}
		// The paper's construction-time ordering: BF fastest, f-HABF within
		// a small factor of BF, HABF slower, learned slowest.
		if vals["HABF"] <= vals["BF"] {
			t.Logf("%s: HABF construction unexpectedly cheap (%v <= BF %v) — tiny scale noise", tab.ID, vals["HABF"], vals["BF"])
		}
		if vals["LBF"] <= vals["HABF"] {
			t.Errorf("%s: learned construction (%v) should exceed HABF (%v)", tab.ID, vals["LBF"], vals["HABF"])
		}
	}
}

func TestFig13SkewColumns(t *testing.T) {
	tab := Fig13(tiny)[0]
	if len(tab.Rows) != 6 {
		t.Fatalf("fig13 has %d rows, want 6 skew points", len(tab.Rows))
	}
	// At high skew HABF must dominate BF decisively.
	last := tab.Rows[len(tab.Rows)-1]
	if parse(t, last[1]) > parse(t, last[3]) {
		t.Errorf("fig13 at skew 3.0: HABF %s worse than BF %s", last[1], last[3])
	}
}

func TestFig14Runs(t *testing.T) {
	tables := Fig14(tiny)
	if len(tables) != 2 {
		t.Fatalf("Fig14 returned %d tables", len(tables))
	}
	for _, tab := range tables {
		for _, row := range tab.Rows {
			for _, cell := range row {
				if cell == "err" {
					t.Errorf("%s: error cell in %v", tab.ID, row)
				}
			}
		}
	}
}

func TestFig15Runs(t *testing.T) {
	tables := Fig15(tiny)
	for _, tab := range tables {
		mb := map[string]float64{}
		for _, row := range tab.Rows {
			if row[1] == "err" {
				t.Errorf("%s: %s errored", tab.ID, row[0])
				continue
			}
			mb[row[0]] = parse(t, row[1])
		}
		// f-HABF is built right after HABF; TestConstructionFootprintCountsPooled
		// checks that it cannot reuse HABF's pooled builder scratch for free.
		for _, name := range []string{"HABF", "f-HABF"} {
			if mb[name] <= mb["BF"] {
				t.Errorf("%s: %s construction footprint (%v MB) should exceed BF (%v MB)", tab.ID, name, mb[name], mb["BF"])
			}
		}
	}
}

func TestAblationsRun(t *testing.T) {
	tab := Ablations(tiny)[0]
	if len(tab.Rows) != 5 {
		t.Fatalf("ablations rows = %d, want 5", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[1] == "err" {
			t.Errorf("ablation %q errored", row[0])
		}
	}
}

func TestRunPrintsAll(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig13", tiny, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig13") {
		t.Fatal("Run produced no output")
	}
}

func TestRelatedWork(t *testing.T) {
	tables := Related(tiny)
	if len(tables) != 2 {
		t.Fatalf("Related returned %d tables", len(tables))
	}
	for _, tab := range tables {
		for _, row := range tab.Rows {
			// Columns: space, bpk, HABF, PHBF, BF.
			habfV, phbfV, bfV := parse(t, row[2]), parse(t, row[3]), parse(t, row[4])
			if habfV > bfV && habfV > 1e-4 {
				t.Errorf("%s: HABF %v worse than BF %v", tab.ID, habfV, bfV)
			}
			_ = phbfV // PHBF may beat or lose to BF; it must simply run
		}
	}
}

func TestLSMExperiment(t *testing.T) {
	tab := LSM(tiny)[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("lsm rows = %d", len(tab.Rows))
	}
	wasted := map[string]float64{}
	for _, row := range tab.Rows {
		wasted[row[0]] = parse(t, row[3])
	}
	if wasted["BF guards"] >= wasted["no filter"] {
		t.Error("BF guards did not reduce wasted cost")
	}
	if wasted["f-HABF guards"] > wasted["BF guards"] {
		t.Errorf("HABF guards (%v) should not waste more than BF guards (%v)",
			wasted["f-HABF guards"], wasted["BF guards"])
	}
}

func TestIncrementalExperiment(t *testing.T) {
	tab := Incremental(tiny)[0]
	// 2 modes × (initial report + 4 batches) = 10 rows.
	if len(tab.Rows) != 10 {
		t.Fatalf("incr rows = %d, want 10", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[1] == "err" {
			t.Fatalf("incremental experiment errored: %v", row)
		}
		if fpr := parse(t, row[3]); fpr > 0.3 {
			t.Errorf("%s batch %s: holdout FPR %v degenerated", row[0], row[1], fpr)
		}
	}
	// IA-LBF's final size must be >= its initial size (memory sacrifice).
	var iaFirst, iaLast float64
	seen := false
	for _, row := range tab.Rows {
		if row[0] == "IA-LBF" {
			v := parse(t, row[4])
			if !seen {
				iaFirst, seen = v, true
			}
			iaLast = v
		}
	}
	if iaLast < iaFirst {
		t.Errorf("IA-LBF shrank: %v -> %v KB", iaFirst, iaLast)
	}
}

func TestBuildFilterUnknown(t *testing.T) {
	w := tiny.shallaWorkload(0)
	if _, err := buildFilter("NotAFilter", w, 1<<14, 1); err == nil {
		t.Fatal("unknown filter name accepted")
	}
}

func TestPaperMBLabels(t *testing.T) {
	// The first Shalla grid point must label as ≈1.3 MB (the paper's
	// 1.25 MB rounded through the bits-per-key conversion) and the first
	// YCSB point as ≈13 MB.
	if mb := paperMB(shallaBitsPerKey[0], true); mb < 1.2 || mb > 1.4 {
		t.Errorf("Shalla first point labels %.2f MB", mb)
	}
	if mb := paperMB(ycsbBitsPerKey[0], false); mb < 12 || mb > 14 {
		t.Errorf("YCSB first point labels %.2f MB", mb)
	}
}
