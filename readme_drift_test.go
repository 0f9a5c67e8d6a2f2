package habf

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/filtercore"
)

// TestReadmeKnobTable pins the README's tuning-knob table to the
// backends' live TuningSchema: every registered backend and knob must
// appear, with the type, domain and default the schema declares, and
// the table may not list knobs that no longer exist. Documentation
// drift fails the build instead of misleading operators.
func TestReadmeKnobTable(t *testing.T) {
	rows := readmeKnobRows(t)

	type key struct{ backend, knob string }
	seen := make(map[key]bool)
	for _, row := range rows {
		k := key{row.backend, row.knob}
		if seen[k] {
			t.Errorf("README lists %s/%s twice", row.backend, row.knob)
		}
		seen[k] = true
	}

	for _, backend := range filtercore.Names() {
		fac, err := filtercore.ByName(backend)
		if err != nil {
			t.Fatalf("ByName(%q): %v", backend, err)
		}
		for _, knob := range fac.TuningSchema.Knobs() {
			k := key{backend, knob.Name}
			if !seen[k] {
				t.Errorf("README knob table is missing %s/%s", backend, knob.Name)
				continue
			}
			delete(seen, k)
			var row knobRow
			for _, r := range rows {
				if r.backend == backend && r.knob == knob.Name {
					row = r
					break
				}
			}
			checkKnobRow(t, row, knob)
		}
	}
	for k := range seen {
		t.Errorf("README lists %s/%s, which no backend schema declares", k.backend, k.knob)
	}
}

// TestOperationsBackendRow pins the -backend row of docs/OPERATIONS.md
// to the registry: habfserved accepts every registered backend, so the
// row must name each one.
func TestOperationsBackendRow(t *testing.T) {
	data, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("read OPERATIONS.md: %v", err)
	}
	var row string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "| `-backend name` |") {
			row = line
			break
		}
	}
	if row == "" {
		t.Fatal("OPERATIONS.md has no -backend flag row")
	}
	for _, name := range filtercore.Names() {
		if !strings.Contains(row, "`"+name+"`") {
			t.Errorf("OPERATIONS.md -backend row omits registered backend %q", name)
		}
	}
}

// TestReadmeFuzzTargets pins the README's CI list to the fuzz job: every
// target CI runs with -fuzz= must be named in README.md.
func TestReadmeFuzzTargets(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatalf("read ci.yml: %v", err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("read README: %v", err)
	}
	targets := 0
	for _, field := range strings.Fields(string(ci)) {
		name, ok := strings.CutPrefix(field, "-fuzz=")
		if !ok {
			continue
		}
		targets++
		if !strings.Contains(string(readme), "`"+name+"`") {
			t.Errorf("CI fuzzes %s, which README does not name", name)
		}
	}
	if targets == 0 {
		t.Fatal("ci.yml runs no -fuzz= target")
	}
}

// knobRow is one parsed row of the README's tuning table.
type knobRow struct {
	backend, knob, typ, domain, def string
}

// readmeKnobRows extracts the tuning-knob table from README.md. The
// Backend cell is only filled on a backend's first row, so it carries
// forward.
func readmeKnobRows(t *testing.T) []knobRow {
	t.Helper()
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("read README: %v", err)
	}
	const header = "| Backend | Knob | Type | Domain | Default |"
	lines := strings.Split(string(data), "\n")
	start := -1
	for i, line := range lines {
		if strings.HasPrefix(line, header) {
			start = i + 2 // skip the |---| separator
			break
		}
	}
	if start < 0 {
		t.Fatalf("README has no knob table (header %q not found)", header)
	}
	var rows []knobRow
	backend := ""
	for _, line := range lines[start:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 7 {
			t.Fatalf("malformed knob-table row: %q", line)
		}
		for i := range cells {
			cells[i] = strings.Trim(strings.TrimSpace(cells[i]), "`")
		}
		if cells[1] != "" {
			backend = cells[1]
		}
		rows = append(rows, knobRow{
			backend: backend,
			knob:    cells[2],
			typ:     cells[3],
			domain:  cells[4],
			def:     cells[5],
		})
	}
	if len(rows) == 0 {
		t.Fatal("README knob table has no rows")
	}
	return rows
}

// checkKnobRow compares one README row against its schema knob.
func checkKnobRow(t *testing.T, row knobRow, knob filtercore.Knob) {
	t.Helper()
	id := row.backend + "/" + row.knob

	wantType := map[filtercore.KnobType]string{
		filtercore.KnobInt:   "int",
		filtercore.KnobFloat: "float",
		filtercore.KnobEnum:  "enum",
	}[knob.Type]
	if row.typ != wantType {
		t.Errorf("%s: README type %q, schema says %q", id, row.typ, wantType)
	}

	// The README annotates defaults ("0 (=3)", "0 (auto)"); the value
	// before the annotation must be the schema default.
	if def := strings.Fields(row.def); len(def) == 0 || def[0] != knob.Default {
		t.Errorf("%s: README default %q, schema default %q", id, row.def, knob.Default)
	}

	switch knob.Type {
	case filtercore.KnobEnum:
		got := expandDomainList(row.domain)
		want := strings.Join(knob.Enum, ",")
		if got != want {
			t.Errorf("%s: README domain %q (= %s), schema enum %s", id, row.domain, got, want)
		}
	default:
		bounds := strings.Split(expandPowers(row.domain), "–")
		if len(bounds) != 2 {
			t.Errorf("%s: README domain %q is not a min–max range", id, row.domain)
			return
		}
		min, err1 := strconv.ParseFloat(bounds[0], 64)
		max, err2 := strconv.ParseFloat(bounds[1], 64)
		if err1 != nil || err2 != nil {
			t.Errorf("%s: README domain %q does not parse: %v %v", id, row.domain, err1, err2)
			return
		}
		if min != knob.Min || max != knob.Max {
			t.Errorf("%s: README domain [%v, %v], schema bounds [%v, %v]",
				id, min, max, knob.Min, knob.Max)
		}
	}
}

// expandDomainList canonicalizes an enum domain cell: comma-separated
// values, with consecutive integers optionally compressed ("0, 3–6"
// reads as 0,3,4,5,6).
func expandDomainList(cell string) string {
	var out []string
	for _, tok := range strings.Split(cell, ",") {
		tok = strings.TrimSpace(tok)
		if lo, hi, ok := strings.Cut(tok, "–"); ok {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 == nil && err2 == nil && a <= b {
				for v := a; v <= b; v++ {
					out = append(out, strconv.Itoa(v))
				}
				continue
			}
		}
		out = append(out, tok)
	}
	return strings.Join(out, ",")
}

// expandPowers rewrites superscript powers of two ("2²⁰") into their
// decimal value, so bound cells can stay human-readable.
func expandPowers(s string) string {
	sup := map[rune]int{
		'⁰': 0, '¹': 1, '²': 2, '³': 3, '⁴': 4,
		'⁵': 5, '⁶': 6, '⁷': 7, '⁸': 8, '⁹': 9,
	}
	runes := []rune(s)
	var b strings.Builder
	for i := 0; i < len(runes); i++ {
		if runes[i] == '2' && i+1 < len(runes) {
			if _, ok := sup[runes[i+1]]; ok {
				exp := 0
				j := i + 1
				for j < len(runes) {
					d, ok := sup[runes[j]]
					if !ok {
						break
					}
					exp = exp*10 + d
					j++
				}
				fmt.Fprintf(&b, "%d", uint64(1)<<exp)
				i = j - 1
				continue
			}
		}
		b.WriteRune(runes[i])
	}
	return b.String()
}
