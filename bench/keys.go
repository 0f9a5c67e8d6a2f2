package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/workload"
)

// zipfSkew is the cost skew of the known negatives: a few negatives carry
// most of the misidentification cost, the case HABF is built for.
const zipfSkew = 1.1

// keySet is one workload's generated inputs: the members the filter is
// built over, the known negatives with their costs, and fresh keys the run
// adds later. The three sets are pairwise disjoint.
type keySet struct {
	members   [][]byte
	negatives [][]byte
	costs     []float64
	fresh     [][]byte
}

// keyGen makes a keySet with the given set sizes, deterministically in seed.
type keyGen func(members, negatives, fresh int, seed int64) keySet

// ycsbKeys makes 20-byte "usr:%016x" keys. dataset.YCSB deduplicates across
// both of its sides, so carving the fresh keys off its positive side keeps
// all three sets disjoint.
func ycsbKeys(members, negatives, fresh int, seed int64) keySet {
	d := dataset.YCSB(members+fresh, negatives, seed)
	return keySet{
		members:   d.Positives[:members:members],
		negatives: d.Negatives,
		costs:     dataset.ZipfCosts(negatives, zipfSkew, seed),
		fresh:     d.Positives[members:],
	}
}

// prefixKeys makes 32-byte keys in the shape of pebble-bench's workload: an
// 8-byte prefix drawn from 32 shared ones plus 16 random bytes, hashed with
// SHA-256. Two inputs collide with probability 2^-128, so the sets are
// disjoint without a dedup map, which at millions of keys would outweigh
// the keys. All keys share one arena to keep the heap small.
func prefixKeys(members, negatives, fresh int, seed int64) keySet {
	rng := rand.New(rand.NewSource(seed))
	var prefixes [32][8]byte
	for i := range prefixes {
		binary.LittleEndian.PutUint64(prefixes[i][:], rng.Uint64())
	}
	n := members + negatives + fresh
	arena := make([]byte, 32*n)
	keys := make([][]byte, n)
	var raw [24]byte
	for i := range keys {
		copy(raw[:8], prefixes[rng.Intn(len(prefixes))][:])
		rng.Read(raw[8:])
		sum := sha256.Sum256(raw[:])
		k := arena[32*i : 32*i+32 : 32*i+32]
		copy(k, sum[:])
		keys[i] = k
	}
	return keySet{
		members:   keys[:members:members],
		negatives: keys[members : members+negatives : members+negatives],
		costs:     dataset.ZipfCosts(negatives, zipfSkew, seed),
		fresh:     keys[members+negatives:],
	}
}

// probeStream is one caller's cyclic probe sequence: negatives at even
// positions and members at odd ones (workload.MixProbes), so every answer at
// an odd position must be true. Callers get distinct streams of one seed.
// The key bytes are copied into one arena in stream order, as a request
// buffer would hold them; pointing into the key sets instead would add a
// cache miss per probe that says nothing about the filter.
func probeStream(ks keySet, dist workload.Distribution, seed int64, caller, n int) ([][]byte, error) {
	probes, err := workload.MixProbes(dist, seed*1_000_003+int64(caller), n, ks.members, ks.negatives)
	if err != nil {
		return nil, err
	}
	size := 0
	for _, p := range probes {
		size += len(p)
	}
	arena := make([]byte, 0, size)
	for i, p := range probes {
		arena = append(arena, p...)
		probes[i] = arena[len(arena)-len(p) : len(arena) : len(arena)]
	}
	return probes, nil
}
