package main

import (
	"bytes"
	"testing"
)

// lossy answers true for every key but one it has forgotten.
type lossy struct{ lost []byte }

func (l lossy) ContainsBatchInto(dst []bool, keys [][]byte) {
	for i, k := range keys {
		dst[i] = !bytes.Equal(k, l.lost)
	}
}

func TestCheckerForgedFalseNegative(t *testing.T) {
	var c checker
	c.attempt(1)
	c.probes("clean", 0, []bool{false, true, false, true}) // negatives may answer either way
	if c.err() != nil || c.exitCode() != 0 {
		t.Fatalf("clean stream: err %v, exit %d", c.err(), c.exitCode())
	}
	c.attempt(1)
	c.probes("forged", 3, []bool{true, true, false}) // stream position 5 is a member
	if c.err() == nil || c.exitCode() == 0 {
		t.Fatalf("forged false negative: err %v, exit %d; want a failure and a non-zero exit", c.err(), c.exitCode())
	}
	if a, f := c.attempted.Load(), c.failed.Load(); a != 2 || f != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", a, f)
	}
}

func TestCheckerAckedAdds(t *testing.T) {
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	var c checker
	c.acked("live", lossy{}, keys)
	if c.err() != nil {
		t.Fatalf("nothing lost: %v", c.err())
	}
	c.acked("restored", lossy{lost: []byte("b")}, keys)
	if c.err() == nil || c.exitCode() != 1 {
		t.Fatal("a lost acked Add was not reported")
	}
	if a, f := c.attempted.Load(), c.failed.Load(); a != 6 || f != 1 {
		t.Fatalf("attempted %d failed %d, want 6 and 1", a, f)
	}
}
