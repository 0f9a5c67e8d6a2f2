package habf_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	habf "repro"
)

func tuningFixture(n int) ([][]byte, []habf.WeightedKey) {
	positives := make([][]byte, n)
	negatives := make([]habf.WeightedKey, n)
	for i := 0; i < n; i++ {
		positives[i] = []byte(fmt.Sprintf("tune-member-%06d", i))
		negatives[i] = habf.WeightedKey{Key: []byte(fmt.Sprintf("tune-absent-%06d", i)), Cost: float64(i%5 + 1)}
	}
	return positives, negatives
}

// TestPublicTuning exercises the knob surface of the public API:
// WithTuning threads validated knobs into the build, Tuning() reports
// the canonical full set, ParseTuning canonicalizes without building,
// and SaveFile/LoadFile round-trips the knobs.
func TestPublicTuning(t *testing.T) {
	positives, negatives := tuningFixture(1500)
	s, err := habf.NewSharded(positives, negatives, 18000,
		habf.WithShards(2), habf.WithBackend("wbf"), habf.WithTuning("cache=0.1", "maxk=14"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := habf.ParseTuning("wbf", "cache=0.1,maxk=14")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Tuning(); got != want {
		t.Fatalf("Tuning() = %q, want %q", got, want)
	}
	for _, key := range positives {
		if !s.Contains(key) {
			t.Fatalf("false negative for %q", key)
		}
	}

	path := filepath.Join(t.TempDir(), "tuned.snap")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	g, err := habf.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Tuning(); got != want {
		t.Fatalf("restored Tuning() = %q, want %q", got, want)
	}

	if _, err := habf.NewSharded(positives, negatives, 18000,
		habf.WithBackend("bloom"), habf.WithTuning("bogus=1")); err == nil {
		t.Fatal("NewSharded accepted an unknown knob")
	}
	if _, err := habf.ParseTuning("bloom", "k=999"); err == nil {
		t.Fatal("ParseTuning accepted an out-of-bounds value")
	}
	if _, err := habf.ParseTuning("no-such", "k=1"); err == nil {
		t.Fatal("ParseTuning accepted an unknown backend")
	}
}

// TestPublicTuningMatchesLegacyOptions pins the single-config-path
// contract for the habf backend: WithK/WithCellBits and the equivalent
// tuning knobs configure the same fields, and either spelling is
// reported back through Tuning() in full.
func TestPublicTuningMatchesLegacyOptions(t *testing.T) {
	positives, negatives := tuningFixture(1000)

	legacy, err := habf.NewSharded(positives, negatives, 12000,
		habf.WithShards(2), habf.WithShardFilterOptions(habf.WithK(4), habf.WithCellBits(5)))
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := habf.NewSharded(positives, negatives, 12000,
		habf.WithShards(2), habf.WithTuning("k=4,cellbits=5"))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Tuning() != tuned.Tuning() {
		t.Fatalf("legacy options report tuning %q, knobs report %q", legacy.Tuning(), tuned.Tuning())
	}
	for _, frag := range []string{"k=4", "cellbits=5"} {
		if !strings.Contains(legacy.Tuning(), frag) {
			t.Errorf("Tuning() = %q does not reflect legacy option %s", legacy.Tuning(), frag)
		}
	}
	// A set knob wins over the legacy option for the same field.
	both, err := habf.NewSharded(positives, negatives, 12000,
		habf.WithShards(2), habf.WithShardFilterOptions(habf.WithK(2)), habf.WithTuning("k=4"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(both.Tuning(), "k=4") {
		t.Fatalf("Tuning() = %q, want the explicit knob k=4 to win", both.Tuning())
	}
}
