package bitset

import (
	"testing"
)

func buildBits(n uint64) *Bits {
	b := New(n)
	for i := uint64(0); i < n; i += 3 {
		b.Set(i)
	}
	return b
}

func TestBitsBorrowAliasesPayload(t *testing.T) {
	b := buildBits(1000)
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Bits
	if err := g.UnmarshalBinaryBorrow(data); err != nil {
		t.Fatal(err)
	}
	if !hostLittleEndian {
		t.Skip("big-endian host: borrow degrades to copy by design")
	}
	// MarshalBinary's 12-byte header leaves the payload 8-misaligned half
	// the time depending on the allocator; only assert aliasing when the
	// decoder reported it.
	if g.Borrowed() {
		// Mutating the source buffer must show through the alias...
		if g.Test(1) {
			t.Fatal("bit 1 unexpectedly set")
		}
		data[12] |= 0x02
		if !g.Test(1) {
			t.Fatal("borrowed vector does not alias the buffer")
		}
		data[12] &^= 0x02
	}
	if !g.Equal(b) {
		t.Fatal("borrowed decode disagrees with source")
	}
}

func TestBitsCopyOnFirstWrite(t *testing.T) {
	b := buildBits(1000)
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Bits
	if err := g.UnmarshalBinaryBorrow(data); err != nil {
		t.Fatal(err)
	}
	wasBorrowed := g.Borrowed()
	g.Set(1)
	if g.Borrowed() {
		t.Fatal("vector still borrowed after a mutation")
	}
	if !g.Test(1) || !g.Test(0) || g.Test(2) {
		t.Fatal("materialized vector lost state")
	}
	if wasBorrowed {
		// The snapshot buffer must be untouched by the write.
		var h Bits
		if err := h.UnmarshalBinaryBorrow(data); err != nil {
			t.Fatal(err)
		}
		if !h.Equal(b) {
			t.Fatal("copy-on-write mutated the source buffer")
		}
	}
}

func TestBitsBorrowMisalignedFallsBackToCopy(t *testing.T) {
	b := buildBits(256)
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Force both parities: one of buf[0:] / buf[1:] is misaligned.
	buf := make([]byte, len(data)+1)
	sawCopy := false
	for shift := 0; shift <= 1; shift++ {
		d := buf[shift : shift+len(data)]
		copy(d, data)
		var g Bits
		if err := g.UnmarshalBinaryBorrow(d); err != nil {
			t.Fatal(err)
		}
		if !g.Equal(b) {
			t.Fatalf("shift %d: decode disagrees", shift)
		}
		if !g.Borrowed() {
			sawCopy = true
		}
	}
	if hostLittleEndian && !sawCopy {
		t.Fatal("expected at least one of the two parities to be misaligned")
	}
}

func TestLanesBorrowAndCopyOnWrite(t *testing.T) {
	l := NewLanes(500, 5)
	for i := uint64(0); i < 500; i++ {
		l.Set(i, i%31)
	}
	data, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Lanes
	if err := g.UnmarshalBinaryBorrow(data); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		if g.Get(i) != i%31 {
			t.Fatalf("lane %d: got %d want %d", i, g.Get(i), i%31)
		}
	}
	g.Set(7, 30)
	if g.Borrowed() {
		t.Fatal("lanes still borrowed after Set")
	}
	if g.Get(7) != 30 || g.Get(8) != 8%31 {
		t.Fatal("materialized lanes lost state")
	}
	var h Lanes
	if err := h.UnmarshalBinaryBorrow(data); err != nil {
		t.Fatal(err)
	}
	if h.Get(7) != 7%31 {
		t.Fatal("copy-on-write mutated the source buffer")
	}
}

func TestBitsResetAndUnionMaterialize(t *testing.T) {
	b := buildBits(128)
	data, _ := b.MarshalBinary()
	var h Bits
	if err := h.UnmarshalBinaryBorrow(data); err != nil {
		t.Fatal(err)
	}
	h.Reset()
	if h.Borrowed() || h.OnesCount() != 0 {
		t.Fatal("Reset did not produce an owned zero vector")
	}
	var probe Bits
	if err := probe.UnmarshalBinaryBorrow(data); err != nil {
		t.Fatal(err)
	}
	if !probe.Equal(b) {
		t.Fatal("Reset mutated the source buffer")
	}
}

// Regression: a declared bit length near 2^64 made (n+63)/64 wrap, so a
// 12-byte payload decoded as a vector claiming 2^64-1 bits whose first
// Test panicked with an index out of range.
func TestBitsUnmarshalLengthOverflow(t *testing.T) {
	data, _ := New(0).MarshalBinary()
	for _, n := range []uint64{^uint64(0), ^uint64(0) - 62, 1 << 63, 1 << 32} {
		bad := append([]byte(nil), data...)
		putU64(bad[4:12], n)
		var b Bits
		if err := b.UnmarshalBinaryBorrow(bad); err == nil {
			t.Errorf("n=%d: hostile bit length accepted", n)
		}
	}
}

// Regression: n·width wrapped the same way for Lanes.
func TestLanesUnmarshalLengthOverflow(t *testing.T) {
	data, _ := NewLanes(1, 64).MarshalBinary()
	for _, n := range []uint64{^uint64(0), (^uint64(0))/64 + 1, 1 << 60} {
		bad := append([]byte(nil), data...)
		putU64(bad[8:16], n)
		var l Lanes
		if err := l.UnmarshalBinaryBorrow(bad); err == nil {
			t.Errorf("n=%d: hostile lane count accepted", n)
		}
	}
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
