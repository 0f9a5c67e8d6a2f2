package lsm

import (
	"fmt"
	"testing"

	"repro/internal/bloom"
)

func put(s *Store, n int, tag string) {
	for i := 0; i < n; i++ {
		s.Put([]byte(fmt.Sprintf("%s/%06d", tag, i)), []byte(fmt.Sprintf("v%d", i)))
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	s := New(Config{MemtableSize: 64})
	put(s, 1000, "k")
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("k/%06d", i))
		v, ok := s.Get(key)
		if !ok {
			t.Fatalf("lost key %q (%v)", key, s)
		}
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %q value %q", key, v)
		}
	}
}

func TestOverwrite(t *testing.T) {
	s := New(Config{MemtableSize: 16})
	key := []byte("dup")
	for i := 0; i < 100; i++ {
		s.Put(key, []byte(fmt.Sprintf("v%d", i)))
		put(s, 10, fmt.Sprintf("filler%d", i)) // force flushes around it
	}
	s.Put(key, []byte("final"))
	v, ok := s.Get(key)
	if !ok || string(v) != "final" {
		t.Fatalf("overwrite lost: %q %v", v, ok)
	}
}

func TestMissingKey(t *testing.T) {
	s := New(Config{MemtableSize: 32})
	put(s, 500, "k")
	if _, ok := s.Get([]byte("never-inserted")); ok {
		t.Fatal("phantom key")
	}
}

func TestCompactionKeepsNewest(t *testing.T) {
	s := New(Config{MemtableSize: 8, MaxL0Runs: 2})
	key := []byte("x")
	s.Put(key, []byte("old"))
	put(s, 40, "a") // flushes + compactions
	s.Put(key, []byte("new"))
	put(s, 40, "b")
	v, ok := s.Get(key)
	if !ok || string(v) != "new" {
		t.Fatalf("compaction resurrected old value: %q %v", v, ok)
	}
}

func TestStatsAccounting(t *testing.T) {
	s := New(Config{MemtableSize: 16})
	put(s, 200, "k")
	s.Flush()
	s.ResetStats()
	for i := 0; i < 100; i++ {
		s.Get([]byte(fmt.Sprintf("miss/%d", i)))
	}
	st := s.Stats()
	var reads, wasted uint64
	for i := range st.Reads {
		reads += st.Reads[i]
		wasted += st.WastedReads[i]
	}
	if reads == 0 {
		t.Fatal("no reads recorded for 100 misses without filters")
	}
	if wasted != reads {
		t.Fatalf("all unguarded miss reads are wasted: reads=%d wasted=%d", reads, wasted)
	}
	if st.CostIncurred <= 0 || st.WastedCost != st.CostIncurred {
		t.Fatalf("cost accounting wrong: %+v", st)
	}
}

func TestFiltersCutWastedReads(t *testing.T) {
	build := func(withFilter bool) Stats {
		cfg := Config{MemtableSize: 128}
		if withFilter {
			cfg.NewFilter = func(keys [][]byte, level int) Filter {
				f, err := bloom.NewWithKeys(keys, 10, bloom.StrategySplit128)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		s := New(cfg)
		put(s, 3000, "k")
		s.Flush()
		s.ResetStats()
		for i := 0; i < 3000; i++ {
			s.Get([]byte(fmt.Sprintf("neg/%06d", i)))
		}
		return s.Stats()
	}
	plain := build(false)
	guarded := build(true)
	if guarded.WastedCost >= plain.WastedCost/10 {
		t.Errorf("filters saved too little: wasted %v vs %v unguarded",
			guarded.WastedCost, plain.WastedCost)
	}
	var rejects uint64
	for _, r := range guarded.FilterRejects {
		rejects += r
	}
	if rejects == 0 {
		t.Error("no filter rejects recorded")
	}
}

func TestFiltersNeverLoseKeys(t *testing.T) {
	cfg := Config{
		MemtableSize: 64,
		NewFilter: func(keys [][]byte, level int) Filter {
			f, err := bloom.NewWithKeys(keys, 8, bloom.StrategySplit128)
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
	}
	s := New(cfg)
	put(s, 2000, "k")
	for i := 0; i < 2000; i++ {
		if _, ok := s.Get([]byte(fmt.Sprintf("k/%06d", i))); !ok {
			t.Fatalf("guard caused false negative on key %d", i)
		}
	}
}

func TestReadCostDefaultsDouble(t *testing.T) {
	cfg := Config{}.withDefaults()
	for i := 1; i < len(cfg.ReadCost); i++ {
		if cfg.ReadCost[i] != cfg.ReadCost[i-1]*2 {
			t.Fatalf("default read costs not doubling: %v", cfg.ReadCost)
		}
	}
}

func TestEmptyFlushNoop(t *testing.T) {
	s := New(Config{})
	s.Flush()
	if got := s.Runs()[0]; got != 0 {
		t.Fatalf("empty flush created %d runs", got)
	}
}

func BenchmarkGetMiss(b *testing.B) {
	cfg := Config{
		MemtableSize: 1024,
		NewFilter: func(keys [][]byte, level int) Filter {
			f, _ := bloom.NewWithKeys(keys, 10, bloom.StrategySplit128)
			return f
		},
	}
	s := New(cfg)
	put(s, 50000, "k")
	s.Flush()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Get([]byte(fmt.Sprintf("miss/%d", i)))
	}
}
