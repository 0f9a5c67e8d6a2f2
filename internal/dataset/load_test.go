package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestKeysRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.txt")
	keys := Shalla(500, 1, 1).Positives
	if err := SaveKeys(path, keys); err != nil {
		t.Fatal(err)
	}
	got, err := LoadKeys(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("loaded %d keys, want %d", len(got), len(keys))
	}
	for i := range keys {
		if !bytes.Equal(got[i], keys[i]) {
			t.Fatalf("key %d mismatch: %q vs %q", i, got[i], keys[i])
		}
	}
}

func TestCostsRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "costs.txt")
	costs := ZipfCosts(300, 1.5, 2)
	if err := SaveCosts(path, costs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCosts(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(costs) {
		t.Fatalf("loaded %d costs, want %d", len(got), len(costs))
	}
	for i := range costs {
		if got[i] != costs[i] {
			t.Fatalf("cost %d: %v vs %v", i, got[i], costs[i])
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadKeys("/nonexistent/file"); err == nil {
		t.Error("missing key file accepted")
	}
	if _, err := LoadCosts("/nonexistent/file"); err == nil {
		t.Error("missing cost file accepted")
	}
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKeys(empty); err == nil {
		t.Error("empty key file accepted")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("1.5\nnot-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCosts(bad); err == nil {
		t.Error("malformed cost accepted")
	}
	for _, line := range []string{"-3", "NaN", "+Inf"} {
		path := filepath.Join(dir, "cost")
		if err := os.WriteFile(path, []byte("1\n"+line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCosts(path); err == nil {
			t.Errorf("cost %q accepted", line)
		}
	}
}
