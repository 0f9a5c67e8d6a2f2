package habf

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/bitset"
	"repro/internal/fuzzcorpus"
)

// fuzzFilterSeeds builds the hostile wire-format inputs FuzzUnmarshalFilter
// starts from. The same set is committed as a seed corpus under
// testdata/fuzz/FuzzUnmarshalFilter (see TestFilterSeedCorpus), so the
// 10-second CI fuzz smoke starts from real decoder edge cases instead of
// an empty corpus.
func fuzzFilterSeeds(tb testing.TB) map[string][]byte {
	pos := genKeys(200, "fz")
	neg := genNegatives(200, "fn", uniformCost)
	built, err := New(pos, neg, Params{TotalBits: 1 << 13})
	if err != nil {
		tb.Fatal(err)
	}
	good, err := built.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	seeds := map[string][]byte{
		"valid-filter": good,
		"empty":        {},
		"magic-only":   []byte("HABF"),
		"half":         good[:len(good)/2],
		// Truncated just inside a block: length prefix intact, payload cut.
		"trunc-1":  good[:len(good)-1],
		"trunc-30": good[:30],
	}
	// Hostile block length: 2^64-1 in the first block's length prefix —
	// the int(uint64) narrowing regression (would wrap on 32-bit hosts).
	k := int(good[6])
	hugeBlock := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(hugeBlock[17+k:], ^uint64(0))
	seeds["huge-block-len"] = hugeBlock
	// Hostile bitset length: payload sized for 0 bits but header claiming
	// 2^64-1, which used to wrap (n+63)/64 and panic the first Test.
	hugeBits := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(hugeBits[17+k+8+4:], ^uint64(0))
	seeds["huge-bitset-len"] = hugeBits
	// Empty arrays: a Bloom filter of 0 bits, or a HashExpressor of 0
	// cells, used to decode and then divide by zero on the first query.
	empty, _ := bitset.New(0).MarshalBinary()
	seeds["empty-bloom"] = replaceBlocks(tb, good, empty, nil)
	empty, _ = bitset.NewLanes(0, uint(good[7])).MarshalBinary()
	seeds["empty-cells"] = replaceBlocks(tb, good, nil, empty)
	// Corrupted payload byte mid-bloom (no inner CRC: may decode to a
	// different but still well-formed filter; must not panic).
	bitrot := append([]byte(nil), good...)
	bitrot[len(bitrot)/2] ^= 0x10
	seeds["bitrot"] = bitrot
	return seeds
}

// replaceBlocks returns a copy of the MarshalBinary payload good with its
// Bloom block and HashExpressor block replaced by bloom and cells; a nil
// replacement keeps the original block.
func replaceBlocks(tb testing.TB, good, bloom, cells []byte) []byte {
	tb.Helper()
	off := 17 + int(good[16])
	block := func() []byte {
		n := int(binary.LittleEndian.Uint64(good[off:]))
		b := good[off+8 : off+8+n]
		off += 8 + n
		return b
	}
	out := append([]byte(nil), good[:off]...)
	for _, repl := range [][]byte{bloom, cells} {
		if orig := block(); repl == nil {
			repl = orig
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(len(repl)))
		out = append(out, repl...)
	}
	if off != len(good) {
		tb.Fatalf("replaceBlocks: %d trailing bytes", len(good)-off)
	}
	return out
}

// batchAround builds a probe batch of batchChunk+7 keys, so it crosses a
// chunk boundary of the batch kernel: key itself, one-byte extensions of
// it, and the given members in turn.
func batchAround(key []byte, members [][]byte) [][]byte {
	batch := make([][]byte, 0, batchChunk+7)
	for i := 0; len(batch) < cap(batch); i++ {
		switch i % 3 {
		case 0:
			batch = append(batch, key)
		case 1:
			batch = append(batch, append(append([]byte{}, key...), byte(i)))
		default:
			batch = append(batch, members[i%len(members)])
		}
	}
	return batch
}

// checkBatchParity fails unless ContainsBatch answers every key of batch
// exactly like Contains.
func checkBatchParity(t *testing.T, f *Filter, batch [][]byte) {
	t.Helper()
	got := f.ContainsBatch(batch)
	for i, k := range batch {
		if want := f.Contains(k); got[i] != want {
			t.Fatalf("%s: key %q: batch=%v per-key=%v", f.Name(), k, got[i], want)
		}
	}
}

// FuzzUnmarshalFilter hardens the wire format: arbitrary bytes must never
// panic, every accepted payload must re-marshal to an equivalent filter,
// and its batch probe must answer like its per-key probe, even where a
// hostile cell holds an index outside the family.
func FuzzUnmarshalFilter(f *testing.F) {
	seeds := fuzzFilterSeeds(f)
	for _, name := range fuzzcorpus.Names(seeds) {
		f.Add(seeds[name])
	}
	members := genKeys(8, "fz")

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := UnmarshalFilter(data)
		if err != nil {
			return // rejected, fine
		}
		// Accepted payloads must be internally consistent: queries don't
		// panic, batches agree with single probes and a re-marshal is
		// accepted again.
		g.Contains([]byte("probe"))
		g.Contains(nil)
		checkBatchParity(t, g, batchAround(data[:min(len(data), 16)], members))
		out, err := g.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted filter failed to marshal: %v", err)
		}
		h, err := UnmarshalFilter(out)
		if err != nil {
			t.Fatalf("re-marshaled filter rejected: %v", err)
		}
		if h.Contains([]byte("probe")) != g.Contains([]byte("probe")) {
			t.Fatal("re-marshaled filter disagrees")
		}
	})
}

// FuzzContains hammers the two-round query with arbitrary keys: no panics,
// determinism per key, and a batch built around the key answered exactly
// like per-key Contains.
func FuzzContains(f *testing.F) {
	pos := genKeys(500, "fz")
	neg := genNegatives(500, "fn", func(i int) float64 { return float64(i + 1) })
	filter, err := New(pos, neg, Params{TotalBits: 1 << 14})
	if err != nil {
		f.Fatal(err)
	}
	fast, err := NewFast(pos, neg, Params{TotalBits: 1 << 14})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("fz/0"))
	f.Add([]byte(""))
	f.Add([]byte{0xff, 0x00, 0x41})

	f.Fuzz(func(t *testing.T, key []byte) {
		a, b := filter.Contains(key), filter.Contains(key)
		if a != b {
			t.Fatal("HABF Contains not deterministic")
		}
		if fast.Contains(key) != fast.Contains(key) {
			t.Fatal("f-HABF Contains not deterministic")
		}
		batch := batchAround(key, pos)
		checkBatchParity(t, filter, batch)
		checkBatchParity(t, fast, batch)
		// Members must always pass, whatever the fuzzer feeds around them.
		if bytes.HasPrefix(key, []byte("fz/")) {
			for _, k := range pos[:3] {
				if !filter.Contains(k) {
					t.Fatal("member lost")
				}
			}
		}
	})
}
