package wbf

import (
	"encoding/binary"
	"fmt"
	"testing"
)

func serializeFixture(t *testing.T) (*Filter, [][]byte, []WeightedKey) {
	t.Helper()
	pos := make([][]byte, 2000)
	neg := make([]WeightedKey, 2000)
	for i := range pos {
		pos[i] = []byte(fmt.Sprintf("wbf-pos-%06d", i))
		neg[i] = WeightedKey{Key: []byte(fmt.Sprintf("wbf-neg-%06d", i)), Cost: float64(i%11 + 1)}
	}
	f, err := New(pos, neg, Config{TotalBits: 2000 * 10})
	if err != nil {
		t.Fatal(err)
	}
	return f, pos, neg
}

func TestSerializeRoundtrip(t *testing.T) {
	f, pos, neg := serializeFixture(t)
	wire, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := UnmarshalFilter(wire)
	if err != nil {
		t.Fatal(err)
	}
	if g.baseK != f.baseK || g.minK != f.minK || g.maxK != f.maxK ||
		g.avgCost != f.avgCost || g.CacheSize() != f.CacheSize() {
		t.Fatal("decoded shape differs")
	}
	for _, key := range pos {
		if !g.Contains(key) {
			t.Fatalf("false negative for %q", key)
		}
	}
	// The per-key hash-count cache must survive: cached costly
	// negatives are probed with their elevated k, so any cache loss
	// would silently change their false-positive behavior.
	for _, n := range neg {
		if g.Contains(n.Key) != f.Contains(n.Key) {
			t.Fatalf("decoded filter disagrees on cached negative %q", n.Key)
		}
	}
	for i := 0; i < 2000; i++ {
		probe := []byte(fmt.Sprintf("wbf-probe-%06d", i))
		if g.Contains(probe) != f.Contains(probe) {
			t.Fatalf("decoded filter disagrees on %q", probe)
		}
	}
	// Re-marshal must be byte-identical: the cache is written in
	// sorted key order precisely so the map round-trips canonically.
	again, err := g.MarshalBinary()
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(again) != string(wire) {
		t.Fatal("re-marshal is not byte-identical")
	}
}

func TestSerializeBorrowCopyOnWrite(t *testing.T) {
	f, _, _ := serializeFixture(t)
	wire, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), wire...)
	g, err := UnmarshalFilter(wire)
	if err != nil {
		t.Fatal(err)
	}
	g.Add([]byte("post-load-add"))
	if !g.Contains([]byte("post-load-add")) {
		t.Fatal("borrowed filter lost an added key")
	}
	if g.Borrowed() {
		t.Fatal("filter still borrowed after a mutation")
	}
	if string(wire) != string(before) {
		t.Fatal("Add mutated the borrowed wire buffer")
	}
}

func TestSerializeRejectsHostileInput(t *testing.T) {
	f, _, _ := serializeFixture(t)
	good, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mut := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"empty":       {},
		"short":       good[:10],
		"truncated":   good[:len(good)-4],
		"trailing":    append(append([]byte(nil), good...), 0),
		"bad magic":   mut(func(b []byte) { b[0] ^= 0xFF }),
		"bad version": mut(func(b []byte) { b[4] = 99 }),
		"zero baseK":  mut(func(b []byte) { b[5] = 0 }),
		"k inversion": mut(func(b []byte) { b[6], b[7] = 60, 2 }),
		"huge baseK":  mut(func(b []byte) { b[5], b[7] = 200, 210 }),
		"nan avgCost": mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[8:16], 0x7FF8000000000001)
		}),
		"huge cache count": mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:24], 1<<40)
		}),
		"huge bits len": mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[24:32], 1<<40)
		}),
	}
	// Corrupt the first cache entry's key length so it runs off the end.
	bitsLen := binary.LittleEndian.Uint64(good[24:32])
	if entryOff := 32 + int(bitsLen); entryOff+4 <= len(good) {
		cases["cache key overrun"] = mut(func(b []byte) {
			binary.LittleEndian.PutUint32(b[entryOff:entryOff+4], 1<<30)
		})
	}
	for name, data := range cases {
		if _, err := UnmarshalFilter(data); err == nil {
			t.Errorf("%s: hostile input accepted", name)
		}
	}
}
