package habf

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

func buildForSerde(t testing.TB, fast bool) (*Filter, [][]byte, []WeightedKey) {
	t.Helper()
	pos := genKeys(3000, "ser-p")
	neg := genNegatives(3000, "ser-n", func(i int) float64 { return float64(i%9 + 1) })
	f, err := New(pos, neg, Params{TotalBits: 3000 * 12, Seed: 5, Fast: fast})
	if err != nil {
		t.Fatal(err)
	}
	return f, pos, neg
}

func TestSerializeRoundtrip(t *testing.T) {
	for _, fast := range []bool{false, true} {
		t.Run(fmt.Sprintf("fast=%v", fast), func(t *testing.T) {
			f, pos, neg := buildForSerde(t, fast)
			data, err := f.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			g, err := UnmarshalFilter(data)
			if err != nil {
				t.Fatal(err)
			}
			if g.Name() != f.Name() || g.K() != f.K() || g.SizeBits() != f.SizeBits() {
				t.Fatal("metadata mismatch after roundtrip")
			}
			for _, k := range pos {
				if !g.Contains(k) {
					t.Fatalf("decoded filter lost member %q", k)
				}
			}
			for i := 0; i < 5000; i++ {
				probe := []byte(fmt.Sprintf("probe-%d", i))
				if f.Contains(probe) != g.Contains(probe) {
					t.Fatalf("decoded filter disagrees on %q", probe)
				}
			}
			for _, n := range neg {
				if f.Contains(n.Key) != g.Contains(n.Key) {
					t.Fatalf("decoded filter disagrees on negative %q", n.Key)
				}
			}
		})
	}
}

func TestUnmarshalErrors(t *testing.T) {
	f, _, _ := buildForSerde(t, false)
	good, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"nil":        nil,
		"short":      good[:10],
		"bad magic":  append([]byte{1, 2, 3, 4}, good[4:]...),
		"truncated":  good[:len(good)-5],
		"trailing":   append(append([]byte(nil), good...), 0xFF),
		"no-blocks":  good[:20],
		"version":    func() []byte { b := append([]byte(nil), good...); b[4] = 9; return b }(),
		"zero-k":     func() []byte { b := append([]byte(nil), good...); b[6] = 0; return b }(),
		"cell-width": func() []byte { b := append([]byte(nil), good...); b[7] = 7; return b }(),
	}
	for name, data := range cases {
		if _, err := UnmarshalFilter(data); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
}

// Property: serialization is a pure function of the filter, and decode ∘
// encode is the identity on query behavior for random probes.
func TestQuickSerializeStable(t *testing.T) {
	f, _, _ := buildForSerde(t, false)
	a, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("MarshalBinary not deterministic")
	}
	g, err := UnmarshalFilter(a)
	if err != nil {
		t.Fatal(err)
	}
	check := func(key []byte) bool { return f.Contains(key) == g.Contains(key) }
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGoldenWireFormat pins MarshalBinary output byte for byte for a
// tiny fixed workload. If this fails the wire format drifted: shipped
// snapshots would stop decoding, so either revert the change or bump
// filterVersion and update this fixture deliberately.
func TestGoldenWireFormat(t *testing.T) {
	pos := make([][]byte, 8)
	for i := range pos {
		pos[i] = []byte(fmt.Sprintf("gold/%d", i))
	}
	neg := []WeightedKey{
		{Key: []byte("lead/0"), Cost: 5},
		{Key: []byte("lead/1"), Cost: 1},
	}
	f, err := New(pos, neg, Params{TotalBits: 512, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const want = "48414246010003040700000000000000030002054400000000000000010075b19a01000000000000" +
		"11000080018002000000002084000000480000018c00000801000000000100000020000000000400" +
		"000000000000001000000200000000002000000000000000020075b1040000001900000000000000" +
		"00000000000000000000000000000000"
	if got := hex.EncodeToString(data); got != want {
		t.Errorf("wire format drifted:\n got  %s\n want %s", got, want)
	}

	// The checked-in fixture must decode and answer correctly, so format
	// drift in the decoder breaks here too.
	fixture, err := hex.DecodeString(want)
	if err != nil {
		t.Fatal(err)
	}
	g, err := UnmarshalFilter(fixture)
	if err != nil {
		t.Fatalf("golden fixture does not decode: %v", err)
	}
	for _, k := range pos {
		if !g.Contains(k) {
			t.Fatalf("golden fixture lost member %q", k)
		}
	}
}

func TestBorrowRoundtripMatchesCopy(t *testing.T) {
	f, pos, _ := buildForSerde(t, false)
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := UnmarshalFilter(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range pos {
		if !g.Contains(k) {
			t.Fatalf("borrowed filter lost member %q", k)
		}
	}
	for i := 0; i < 3000; i++ {
		probe := []byte(fmt.Sprintf("probe-%d", i))
		if f.Contains(probe) != g.Contains(probe) {
			t.Fatalf("borrowed filter disagrees on %q", probe)
		}
	}
	// A borrowed filter must survive Add via copy-on-write, leaving the
	// source bytes untouched.
	before := append([]byte(nil), data...)
	g.Add([]byte("post-load"))
	if !g.Contains([]byte("post-load")) {
		t.Fatal("borrowed filter lost added key")
	}
	if string(before) != string(data) {
		t.Fatal("Add on a borrowed filter mutated the source buffer")
	}
	for _, k := range pos {
		if !g.Contains(k) {
			t.Fatalf("member %q lost after copy-on-write", k)
		}
	}
}

// Regression for the int(uint64) narrowing on block lengths: a length
// field near 2^64 (or, on 32-bit hosts, just above 2^31) must be
// rejected by a 64-bit compare before any slicing or allocation.
func TestUnmarshalBlockLengthOverflow(t *testing.T) {
	f, _, _ := buildForSerde(t, false)
	good, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	k := int(good[6])
	blockLenOff := 17 + k // first block's u64 length prefix
	for _, n := range []uint64{^uint64(0), 1 << 63, 1<<32 + 1, uint64(len(good))} {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(bad[blockLenOff:], n)
		if _, err := UnmarshalFilter(bad); err == nil {
			t.Errorf("block length %d accepted", n)
		}
	}
	// Hostile length inside the bitset payload header as well: declared
	// bit count far beyond the payload.
	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(bad[blockLenOff+8+4:], ^uint64(0)) // Bits.n field
	if _, err := UnmarshalFilter(bad); err == nil {
		t.Error("hostile bitset bit count accepted")
	}
}

// Regression: a payload whose Bloom bit array or HashExpressor cell array
// is empty decoded fine, and its first query panicked with an integer
// divide by zero (position % m, cell % ω).
func TestUnmarshalEmptyArrays(t *testing.T) {
	f, _, _ := buildForSerde(t, false)
	good, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	emptyBloom, _ := bitset.New(0).MarshalBinary()
	emptyCells, _ := bitset.NewLanes(0, f.he.cells.Width()).MarshalBinary()
	cases := map[string][]byte{
		"empty bloom": replaceBlocks(t, good, emptyBloom, nil),
		"empty cells": replaceBlocks(t, good, nil, emptyCells),
	}
	// The splice itself is sound: replacing nothing reproduces the input.
	if same := replaceBlocks(t, good, nil, nil); string(same) != string(good) {
		t.Fatal("replaceBlocks(nil, nil) changed the payload")
	}
	for name, data := range cases {
		if _, err := UnmarshalFilter(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSerializedSizeReasonable(t *testing.T) {
	f, _, _ := buildForSerde(t, false)
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	logical := f.SizeBits() / 8
	if uint64(len(data)) > logical+logical/8+128 {
		t.Errorf("serialized %d bytes for %d logical bytes", len(data), logical)
	}
}
