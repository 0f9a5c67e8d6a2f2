package hashes

import (
	"fmt"
	"math/rand"
	"testing"
)

// laneForms pairs each 4-lane form with the scalar function it must match.
var laneForms = []struct {
	name   string
	scalar Func
	lanes  func(k0, k1, k2, k3 []byte) (uint64, uint64, uint64, uint64)
}{
	{"OAAT", OAAT, OAAT4},
	{"Hsieh", Hsieh, Hsieh4},
}

// checkLanes fails unless every lane of every lane form equals the
// scalar function of the same key.
func checkLanes(t *testing.T, keys [4][]byte) {
	t.Helper()
	for _, lf := range laneForms {
		var got [4]uint64
		got[0], got[1], got[2], got[3] = lf.lanes(keys[0], keys[1], keys[2], keys[3])
		for i, key := range keys {
			if want := lf.scalar(key); got[i] != want {
				t.Fatalf("%s lane %d of %q = %#x, scalar %#x", lf.name, i, key, got[i], want)
			}
		}
	}
}

// TestLaneParity checks the lane forms against the scalar functions for
// every key length from 0 to 70, on equal-length groups (the lockstep
// path) and on groups whose lengths differ (the scalar fallback).
func TestLaneParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	buf := make([]byte, 4*71)
	for n := 0; n <= 70; n++ {
		rng.Read(buf)
		var keys [4][]byte
		for i := range keys {
			keys[i] = buf[i*71 : i*71+n]
		}
		checkLanes(t, keys)
		for i := range keys {
			// Same length but for one lane, shorter and longer.
			mixed := keys
			mixed[i] = buf[i*71 : i*71+(n+i+1)%71]
			checkLanes(t, mixed)
		}
	}
}

// FuzzLaneParity builds four equal-length keys from the input (its four
// quarters) and checks each lane against the scalar function.
func FuzzLaneParity(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("abcd"))
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 4
		checkLanes(t, [4][]byte{data[:n], data[n : 2*n], data[2*n : 3*n], data[3*n : 4*n]})
	})
}

var sinkCorpus uint64

// BenchmarkCorpus32 times every corpus function over 64 distinct 32-byte
// keys, the key shape of the probe-cold workload. The scalar row hashes
// one key per call; functions with a 4-lane form also get a lane row,
// four keys per call. ns/op is per key, so the rows compare directly and
// show which functions gain from a lane form.
//
//	go test -run '^$' -bench Corpus32 -cpu 1 ./internal/hashes
func BenchmarkCorpus32(b *testing.B) {
	const nkeys, size = 64, 32
	rng := rand.New(rand.NewSource(32))
	keys := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = make([]byte, size)
		rng.Read(keys[i])
	}
	for _, n := range Corpus() {
		b.Run(n.Name+"/scalar", func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += n.Fn(keys[i%nkeys])
			}
			sinkCorpus = sink
		})
	}
	for _, lf := range laneForms {
		b.Run(fmt.Sprintf("%s/lane", lf.name), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i += 4 {
				j := i % nkeys
				h0, h1, h2, h3 := lf.lanes(keys[j], keys[j+1], keys[j+2], keys[j+3])
				sink += h0 ^ h1 ^ h2 ^ h3
			}
			sinkCorpus = sink
		})
	}
}
