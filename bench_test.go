// Benchmarks regenerating every figure of the paper's evaluation (§V).
// Each BenchmarkFigNN target runs the corresponding experiment end to end
// at bench scale; run the cmd/habfbench binary for full-scale tables.
//
//	go test -bench=Fig -benchmem
package habf_test

import (
	"bytes"
	"io"
	"strconv"
	"sync/atomic"
	"testing"

	habf "repro"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/metrics"
	wl "repro/internal/workload"
)

// benchCfg keeps figure benchmarks in the hundreds-of-milliseconds range.
var benchCfg = experiments.Config{Scale: 0.1, Seed: 1}

func runFig(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, benchCfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig08TheoreticBound(b *testing.B) { runFig(b, "fig08") }
func BenchmarkFig09Parameters(b *testing.B)     { runFig(b, "fig09") }
func BenchmarkFig10UniformFPR(b *testing.B)     { runFig(b, "fig10") }
func BenchmarkFig11SkewedFPR(b *testing.B)      { runFig(b, "fig11") }
func BenchmarkFig12ConstructionAndQuery(b *testing.B) {
	runFig(b, "fig12")
}
func BenchmarkFig13Skewness(b *testing.B)  { runFig(b, "fig13") }
func BenchmarkFig14HashImpls(b *testing.B) { runFig(b, "fig14") }
func BenchmarkFig15Memory(b *testing.B)    { runFig(b, "fig15") }
func BenchmarkAblations(b *testing.B)      { runFig(b, "abl") }
func BenchmarkRelatedWork(b *testing.B)    { runFig(b, "rel") }
func BenchmarkLSMScenario(b *testing.B)    { runFig(b, "lsm") }
func BenchmarkIncremental(b *testing.B)    { runFig(b, "incr") }

// --- Micro-benchmarks: per-operation costs underlying Fig. 12 ---

type fixtures struct {
	pos   [][]byte
	neg   [][]byte
	wneg  []habf.WeightedKey
	costs []float64
}

func loadFixtures(n int) fixtures {
	p := dataset.Shalla(n, n, 1)
	costs := dataset.ZipfCosts(n, 1.0, 1)
	fx := fixtures{pos: p.Positives, neg: p.Negatives, costs: costs}
	fx.wneg = make([]habf.WeightedKey, n)
	for i := range fx.wneg {
		fx.wneg[i] = habf.WeightedKey{Key: p.Negatives[i], Cost: costs[i]}
	}
	return fx
}

func benchBuild(b *testing.B, build func(fx fixtures) (metrics.Filter, error)) {
	fx := loadFixtures(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := build(fx)
		if err != nil {
			b.Fatal(err)
		}
		_ = f
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/20000, "ns/key")
}

func BenchmarkConstructHABF(b *testing.B) {
	benchBuild(b, func(fx fixtures) (metrics.Filter, error) {
		return habf.New(fx.pos, fx.wneg, uint64(10*len(fx.pos)))
	})
}

func BenchmarkConstructFastHABF(b *testing.B) {
	benchBuild(b, func(fx fixtures) (metrics.Filter, error) {
		return habf.NewFast(fx.pos, fx.wneg, uint64(10*len(fx.pos)))
	})
}

func BenchmarkConstructBF(b *testing.B) {
	benchBuild(b, func(fx fixtures) (metrics.Filter, error) {
		return habf.NewBloom(fx.pos, 10, habf.BloomCorpus)
	})
}

func BenchmarkConstructXor(b *testing.B) {
	benchBuild(b, func(fx fixtures) (metrics.Filter, error) {
		return habf.NewXor(fx.pos, 10)
	})
}

func BenchmarkConstructWBF(b *testing.B) {
	benchBuild(b, func(fx fixtures) (metrics.Filter, error) {
		return habf.NewWBF(fx.pos, fx.wneg, uint64(10*len(fx.pos)))
	})
}

func BenchmarkConstructLBF(b *testing.B) {
	benchBuild(b, func(fx fixtures) (metrics.Filter, error) {
		return habf.NewLBF(fx.pos, fx.neg, uint64(10*len(fx.pos)))
	})
}

func BenchmarkConstructPHBF(b *testing.B) {
	benchBuild(b, func(fx fixtures) (metrics.Filter, error) {
		return habf.NewPHBF(fx.pos, uint64(10*len(fx.pos)))
	})
}

func BenchmarkConstructSLBF(b *testing.B) {
	benchBuild(b, func(fx fixtures) (metrics.Filter, error) {
		return habf.NewSLBF(fx.pos, fx.neg, uint64(10*len(fx.pos)))
	})
}

func BenchmarkConstructAdaBF(b *testing.B) {
	benchBuild(b, func(fx fixtures) (metrics.Filter, error) {
		return habf.NewAdaBF(fx.pos, fx.neg, uint64(10*len(fx.pos)))
	})
}

func benchQuery(b *testing.B, f metrics.Filter, probes [][]byte) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var hits int
	for i := 0; i < b.N; i++ {
		if f.Contains(probes[i%len(probes)]) {
			hits++
		}
	}
	_ = hits
}

func BenchmarkQueryHABF(b *testing.B) {
	fx := loadFixtures(20000)
	f, err := habf.New(fx.pos, fx.wneg, uint64(10*len(fx.pos)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("negative", func(b *testing.B) { benchQuery(b, f, fx.neg) })
	b.Run("positive", func(b *testing.B) { benchQuery(b, f, fx.pos) })
}

func BenchmarkQueryFastHABF(b *testing.B) {
	fx := loadFixtures(20000)
	f, err := habf.NewFast(fx.pos, fx.wneg, uint64(10*len(fx.pos)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("negative", func(b *testing.B) { benchQuery(b, f, fx.neg) })
	b.Run("positive", func(b *testing.B) { benchQuery(b, f, fx.pos) })
}

func BenchmarkQueryBF(b *testing.B) {
	fx := loadFixtures(20000)
	f, err := habf.NewBloom(fx.pos, 10, habf.BloomCorpus)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("negative", func(b *testing.B) { benchQuery(b, f, fx.neg) })
	b.Run("positive", func(b *testing.B) { benchQuery(b, f, fx.pos) })
}

func BenchmarkQueryXor(b *testing.B) {
	fx := loadFixtures(20000)
	f, err := habf.NewXor(fx.pos, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("negative", func(b *testing.B) { benchQuery(b, f, fx.neg) })
	b.Run("positive", func(b *testing.B) { benchQuery(b, f, fx.pos) })
}

func BenchmarkQueryLBF(b *testing.B) {
	fx := loadFixtures(20000)
	f, err := habf.NewLBF(fx.pos, fx.neg, uint64(12*len(fx.pos)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("negative", func(b *testing.B) { benchQuery(b, f, fx.neg) })
	b.Run("positive", func(b *testing.B) { benchQuery(b, f, fx.pos) })
}

func BenchmarkQueryWBF(b *testing.B) {
	fx := loadFixtures(20000)
	f, err := habf.NewWBF(fx.pos, fx.wneg, uint64(10*len(fx.pos)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("negative", func(b *testing.B) { benchQuery(b, f, fx.neg) })
	b.Run("positive", func(b *testing.B) { benchQuery(b, f, fx.pos) })
}

func BenchmarkQueryPHBF(b *testing.B) {
	fx := loadFixtures(20000)
	f, err := habf.NewPHBF(fx.pos, uint64(10*len(fx.pos)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("negative", func(b *testing.B) { benchQuery(b, f, fx.neg) })
	b.Run("positive", func(b *testing.B) { benchQuery(b, f, fx.pos) })
}

// --- Serving-layer benchmarks: sharding and batching ---

// zipfProbes builds a deterministic zipf-skewed probe stream mixing
// positives and known negatives, the shape of real serving traffic.
func zipfProbes(b *testing.B, fx fixtures, n int) [][]byte {
	b.Helper()
	probes, err := wl.MixProbes(wl.Zipfian, 42, n, fx.pos, fx.neg)
	if err != nil {
		b.Fatal(err)
	}
	return probes
}

// BenchmarkShardedContainsBatch compares single-process query throughput
// of per-key Contains against the sharded batch path on a zipfian
// workload. ns/op is per key in every sub-benchmark.
func BenchmarkShardedContainsBatch(b *testing.B) {
	fx := loadFixtures(20000)
	bits := uint64(10 * len(fx.pos))
	single, err := habf.New(fx.pos, fx.wneg, bits)
	if err != nil {
		b.Fatal(err)
	}
	sharded, err := habf.NewSharded(fx.pos, fx.wneg, bits, habf.WithShards(8))
	if err != nil {
		b.Fatal(err)
	}
	probes := zipfProbes(b, fx, 1<<16)
	mask := len(probes) - 1

	b.Run("single/perkey", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = single.Contains(probes[i&mask])
		}
	})
	b.Run("single/batch256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += 256 {
			lo := i & mask
			_ = single.ContainsBatch(probes[lo : lo+256])
		}
	})
	b.Run("sharded/perkey", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = sharded.Contains(probes[i&mask])
		}
	})
	b.Run("sharded/batch256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += 256 {
			lo := i & mask
			_ = sharded.ContainsBatch(probes[lo : lo+256])
		}
	})
	b.Run("sharded/batch256/into", func(b *testing.B) {
		// The zero-alloc variant: a serving loop's reused result buffer.
		b.ReportAllocs()
		dst := make([]bool, 256)
		for i := 0; i < b.N; i += 256 {
			lo := i & mask
			sharded.ContainsBatchInto(dst, probes[lo:lo+256])
		}
	})
	b.Run("sharded/batch256/into/parallel", func(b *testing.B) {
		// Concurrent batch callers, each with its own result buffer: the
		// shape of in-process serving with several query goroutines. Each
		// pb.Next is one key; every 256th issues the batch.
		b.ReportAllocs()
		var ctr atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			dst := make([]bool, 256)
			lo := int(ctr.Add(1)*256) & mask
			k := 0
			for pb.Next() {
				if k++; k < 256 {
					continue
				}
				sharded.ContainsBatchInto(dst, probes[lo:lo+256])
				lo = (lo + 256) & mask
				k = 0
			}
		})
	})
	b.Run("sharded/batch4096/into", func(b *testing.B) {
		// One caller with a large batch: answered on the caller's
		// goroutine alone, however many cores are idle.
		b.ReportAllocs()
		dst := make([]bool, 4096)
		for i := 0; i < b.N; i += 4096 {
			lo := i & mask
			sharded.ContainsBatchInto(dst, probes[lo:lo+4096])
		}
	})
	b.Run("sharded/perkey/parallel", func(b *testing.B) {
		// The per-request serving path: ≥8 concurrent clients each
		// querying one key at a time (per-key shard lock, per-call
		// setup), as habfserved answers single-key network callers.
		// Contrast with batch256/parallel below — same concurrency, one
		// lock round per 256 keys — the path of callers that send their
		// keys as one batch.
		b.ReportAllocs()
		b.SetParallelism(8)
		var ctr atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(ctr.Add(1))
				_ = sharded.Contains(probes[i&mask])
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mkeys/s")
	})
	b.Run("sharded/batch256/parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				lo := (i * 256) & mask
				_ = sharded.ContainsBatch(probes[lo : lo+256])
				i++
			}
		})
		b.ReportMetric(float64(b.N)*256/b.Elapsed().Seconds()/1e6, "Mkeys/s")
	})
}

// BenchmarkShardedConstruct measures the parallel-build win at
// construction time.
func BenchmarkShardedConstruct(b *testing.B) {
	fx := loadFixtures(20000)
	bits := uint64(10 * len(fx.pos))
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := habf.New(fx.pos, fx.wneg, bits); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sharded8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := habf.NewSharded(fx.pos, fx.wneg, bits, habf.WithShards(8)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSerializeHABF measures MarshalBinary/UnmarshalHABF roundtrips.
func BenchmarkSerializeHABF(b *testing.B) {
	fx := loadFixtures(20000)
	f, err := habf.New(fx.pos, fx.wneg, uint64(10*len(fx.pos)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	data, _ := f.MarshalBinary()
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := habf.UnmarshalHABF(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedRestore pins the point of the snapshot subsystem:
// restoring a 1M-key sharded filter from a snapshot vs constructing it.
// The acceptance bar is restore ≥ 10× faster than build; in practice the
// zero-copy load is orders of magnitude faster (checksum scan + header
// decode, no key hashing at all). The restored filter is contract-checked
// against a member sample every iteration so the speed is not bought with
// a lazy (non-serving) load.
func BenchmarkShardedRestore(b *testing.B) {
	const nKeys = 1 << 20
	pos := make([][]byte, nKeys)
	for i := range pos {
		pos[i] = []byte("restore-key-" + strconv.Itoa(i))
	}
	bits := uint64(10 * nKeys)
	build := func(b *testing.B) *habf.Sharded {
		s, err := habf.NewSharded(pos, nil, bits,
			habf.WithShards(8), habf.WithFastShards())
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := build(b)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Logf("snapshot: %.1f MiB for %d keys", float64(len(data))/(1<<20), nKeys)

	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = build(b)
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := habf.Load(data)
			if err != nil {
				b.Fatal(err)
			}
			// Zero-false-negative spot check on a stride of members: the
			// restored filter must be serving, not lazily decoded.
			for j := 0; j < nKeys; j += nKeys / 64 {
				if !g.Contains(pos[j]) {
					b.Fatalf("restored filter lost member %d", j)
				}
			}
		}
	})
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var w countingDiscard
			if err := s.Save(&w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// countingDiscard is an io.Writer sink that cannot be optimized away.
type countingDiscard struct{ n int64 }

func (w *countingDiscard) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// BenchmarkWeightedFPRScan measures the measurement itself (used inside
// every accuracy experiment).
func BenchmarkWeightedFPRScan(b *testing.B) {
	fx := loadFixtures(20000)
	f, err := habf.New(fx.pos, fx.wneg, uint64(10*len(fx.pos)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := habf.WeightedFPR(f, fx.neg, fx.costs); err != nil {
			b.Fatal(err)
		}
	}
}

// sink prevents dead-code elimination across benchmarks.
var sink = strconv.Itoa(0)
