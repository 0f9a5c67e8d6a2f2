package bloom

import (
	"encoding/binary"
	"fmt"
	"testing"
)

func serializeFixture(t *testing.T, strategy Strategy) (*Filter, [][]byte) {
	t.Helper()
	keys := make([][]byte, 2000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("ser-key-%06d", i))
	}
	f, err := NewWithKeys(keys, 10, strategy)
	if err != nil {
		t.Fatal(err)
	}
	return f, keys
}

func TestSerializeRoundtrip(t *testing.T) {
	for _, strategy := range []Strategy{StrategyCorpus, StrategySeeded64, StrategySplit128} {
		t.Run(strategy.String(), func(t *testing.T) {
			f, keys := serializeFixture(t, strategy)
			wire, err := f.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			g, err := UnmarshalFilter(wire)
			if err != nil {
				t.Fatal(err)
			}
			if g.K() != f.K() || g.MBits() != f.MBits() || g.Count() != f.Count() || g.Name() != f.Name() {
				t.Fatalf("decoded shape k=%d m=%d n=%d %q, want k=%d m=%d n=%d %q",
					g.K(), g.MBits(), g.Count(), g.Name(), f.K(), f.MBits(), f.Count(), f.Name())
			}
			for _, key := range keys {
				if !g.Contains(key) {
					t.Fatalf("false negative for %q", key)
				}
			}
			for i := 0; i < 2000; i++ {
				probe := []byte(fmt.Sprintf("ser-probe-%06d", i))
				if g.Contains(probe) != f.Contains(probe) {
					t.Fatalf("decoded filter disagrees on %q", probe)
				}
			}
		})
	}
}

func TestSerializeBorrowCopyOnWrite(t *testing.T) {
	f, _ := serializeFixture(t, StrategySplit128)
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
	f, _ := serializeFixture(t, StrategySplit128)
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
		"empty":          {},
		"short":          good[:10],
		"truncated":      good[:len(good)-4],
		"trailing":       append(append([]byte(nil), good...), 0),
		"bad magic":      mut(func(b []byte) { b[0] ^= 0xFF }),
		"bad version":    mut(func(b []byte) { b[4] = 99 }),
		"bad strategy":   mut(func(b []byte) { b[5] = 77 }),
		"zero k":         mut(func(b []byte) { b[6] = 0 }),
		"corpus k > max": mut(func(b []byte) { b[5], b[6] = 0, 255 }),
		"huge bits len": mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:24], 1<<40)
		}),
	}
	for name, data := range cases {
		if _, err := UnmarshalFilter(data); err == nil {
			t.Errorf("%s: hostile input accepted", name)
		}
	}
}
