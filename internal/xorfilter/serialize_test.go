package xorfilter

import (
	"encoding/binary"
	"fmt"
	"testing"
)

func serializeFixture(t *testing.T) (*Filter, [][]byte) {
	t.Helper()
	keys := make([][]byte, 2000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("xser-key-%06d", i))
	}
	f, err := NewWithBudget(keys, 10)
	if err != nil {
		t.Fatal(err)
	}
	return f, keys
}

func TestSerializeRoundtrip(t *testing.T) {
	f, keys := serializeFixture(t)
	wire, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := UnmarshalFilter(wire)
	if err != nil {
		t.Fatal(err)
	}
	if g.Width() != f.Width() || g.Count() != f.Count() || g.SizeBits() != f.SizeBits() {
		t.Fatalf("decoded shape w=%d n=%d bits=%d, want w=%d n=%d bits=%d",
			g.Width(), g.Count(), g.SizeBits(), f.Width(), f.Count(), f.SizeBits())
	}
	for _, key := range keys {
		if !g.Contains(key) {
			t.Fatalf("false negative for %q", key)
		}
	}
	for i := 0; i < 2000; i++ {
		probe := []byte(fmt.Sprintf("xser-probe-%06d", i))
		if g.Contains(probe) != f.Contains(probe) {
			t.Fatalf("decoded filter disagrees on %q", probe)
		}
	}
	// The decode should alias an aligned heap buffer (the marshal output
	// starts at a word-aligned allocation and the lanes payload offset is
	// a multiple of 8).
	if !g.Borrowed() {
		t.Log("decode degraded to a copy (alignment); allowed but unexpected on amd64")
	}
}

func TestSerializeRejectsHostileInput(t *testing.T) {
	f, _ := serializeFixture(t)
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
		"short":       good[:16],
		"truncated":   good[:len(good)-4],
		"trailing":    append(append([]byte(nil), good...), 0),
		"bad magic":   mut(func(b []byte) { b[0] ^= 0xFF }),
		"bad version": mut(func(b []byte) { b[4] = 99 }),
		"zero block": mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:24], 0)
		}),
		// blockLen inconsistent with the table: slot derivation would
		// index out of bounds.
		"short block": mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:24], 1)
		}),
		// blockLen chosen so 3·blockLen wraps around 2^64; must be
		// rejected by the division-based check, not accepted via
		// overflow.
		"wrapping block": mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:24], (1<<64-1)/3+1)
		}),
		"huge lanes len": mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[32:40], 1<<40)
		}),
	}
	for name, data := range cases {
		if _, err := UnmarshalFilter(data); err == nil {
			t.Errorf("%s: hostile input accepted", name)
		}
	}
}
