package main

import (
	"bytes"
	"testing"

	"repro/internal/workload"
)

func TestKeyGenerators(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  keyGen
		size int
	}{
		{"ycsb", ycsbKeys, 20},
		{"prefix", prefixKeys, 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.gen(3000, 2000, 1000, 7)
			if len(a.members) != 3000 || len(a.negatives) != 2000 || len(a.costs) != 2000 || len(a.fresh) != 1000 {
				t.Fatalf("sizes %d/%d/%d/%d, want 3000/2000/2000/1000", len(a.members), len(a.negatives), len(a.costs), len(a.fresh))
			}
			seen := map[string]int{}
			for set, keys := range [][][]byte{a.members, a.negatives, a.fresh} {
				for i, k := range keys {
					if len(k) != tc.size {
						t.Fatalf("set %d key %d has %d bytes, want %d", set, i, len(k), tc.size)
					}
					if prev, dup := seen[string(k)]; dup {
						t.Fatalf("key %x is in sets %d and %d", k, prev, set)
					}
					seen[string(k)] = set
				}
			}

			b := tc.gen(3000, 2000, 1000, 7)
			c := tc.gen(3000, 2000, 1000, 8)
			for i := range a.members {
				if !bytes.Equal(a.members[i], b.members[i]) {
					t.Fatalf("member %d differs between two runs of seed 7", i)
				}
			}
			for i := range a.costs {
				if a.costs[i] != b.costs[i] || !bytes.Equal(a.negatives[i], b.negatives[i]) {
					t.Fatalf("negative %d differs between two runs of seed 7", i)
				}
			}
			if bytes.Equal(a.members[0], c.members[0]) && bytes.Equal(a.negatives[0], c.negatives[0]) {
				t.Fatal("seeds 7 and 8 give the same keys")
			}
		})
	}
}

func TestProbeStreamParity(t *testing.T) {
	ks := ycsbKeys(500, 500, 0, 3)
	members := map[string]bool{}
	for _, k := range ks.members {
		members[string(k)] = true
	}
	s0, err := probeStream(ks, workload.Zipfian, 3, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := probeStream(ks, workload.Zipfian, 3, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	again, err := probeStream(ks, workload.Zipfian, 3, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i, k := range s0 {
		if members[string(k)] != (i%2 == 1) {
			t.Fatalf("position %d: member=%v", i, members[string(k)])
		}
		if !bytes.Equal(k, again[i]) {
			t.Fatalf("position %d differs between two streams of one seed", i)
		}
		same = same && bytes.Equal(k, s1[i])
	}
	if same {
		t.Fatal("callers 0 and 1 got the same stream")
	}
}
