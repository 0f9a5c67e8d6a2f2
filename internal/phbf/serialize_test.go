package phbf

import (
	"encoding/binary"
	"fmt"
	"testing"
)

func serializeFixture(t *testing.T) (*Filter, [][]byte) {
	t.Helper()
	keys := make([][]byte, 2000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("phbf-key-%06d", i))
	}
	f, err := New(keys, Config{TotalBits: 2000 * 10})
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
	if g.K() != f.K() || g.Groups() != f.Groups() || g.SizeBits() != f.SizeBits() {
		t.Fatalf("decoded shape k=%d groups=%d size=%d, want k=%d groups=%d size=%d",
			g.K(), g.Groups(), g.SizeBits(), f.K(), f.Groups(), f.SizeBits())
	}
	for _, key := range keys {
		if !g.Contains(key) {
			t.Fatalf("false negative for %q", key)
		}
	}
	// The per-group seeds are the filter's whole point: any seed
	// corruption changes which positions a group's keys probe, so the
	// decoded filter must agree on arbitrary probes, not just members.
	for i := 0; i < 2000; i++ {
		probe := []byte(fmt.Sprintf("phbf-probe-%06d", i))
		if g.Contains(probe) != f.Contains(probe) {
			t.Fatalf("decoded filter disagrees on %q", probe)
		}
	}
	again, err := g.MarshalBinary()
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(again) != string(wire) {
		t.Fatal("re-marshal is not byte-identical")
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
		"short":       good[:8],
		"truncated":   good[:len(good)-4],
		"trailing":    append(append([]byte(nil), good...), 0),
		"bad magic":   mut(func(b []byte) { b[0] ^= 0xFF }),
		"bad version": mut(func(b []byte) { b[4] = 99 }),
		"zero k":      mut(func(b []byte) { b[5] = 0 }),
		"huge k":      mut(func(b []byte) { b[5] = 255 }),
		// A zero group count would divide-by-zero the partition hash of
		// every query; a huge one would allocate an absurd seed table.
		"zero groups": mut(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:12], 0)
		}),
		"huge groups": mut(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:12], 1<<30)
		}),
		"seed table past end": mut(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:12], uint32((len(good)-12)/8))
		}),
	}
	for name, data := range cases {
		if _, err := UnmarshalFilter(data); err == nil {
			t.Errorf("%s: hostile input accepted", name)
		}
	}
}
