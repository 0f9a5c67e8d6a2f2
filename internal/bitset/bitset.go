// Package bitset provides the low-level bit storage shared by every filter
// in this repository: a plain bit vector (Bits) and a packed array of
// fixed-width unsigned lanes (Lanes).
//
// Both types are deliberately simple: no concurrency control (filters are
// built single-threaded and queried read-only), explicit sizes, and binary
// serialization so filters can report and persist their exact footprint.
package bitset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Bits is a fixed-length bit vector. The zero value is an empty vector;
// use New to allocate one with a given length.
type Bits struct {
	words []uint64
	n     uint64
	// borrowed is true while words aliases caller-provided memory (see
	// UnmarshalBinaryBorrow). The first mutation copies the payload into
	// owned memory and clears the flag.
	borrowed bool
}

// New returns a bit vector with n bits, all zero.
func New(n uint64) *Bits {
	return &Bits{
		words: make([]uint64, (n+63)/64),
		n:     n,
	}
}

// Len returns the number of bits in the vector.
func (b *Bits) Len() uint64 { return b.n }

// SizeBytes returns the heap footprint of the payload in bytes.
func (b *Bits) SizeBytes() uint64 { return uint64(len(b.words)) * 8 }

// Set sets bit i to 1. It panics if i is out of range.
func (b *Bits) Set(i uint64) {
	if i >= b.n {
		panic(rangeError{op: "Set", i: i, n: b.n})
	}
	if b.borrowed {
		b.materialize()
	}
	b.words[i>>6] |= 1 << (i & 63)
}

// Clear sets bit i to 0. It panics if i is out of range.
func (b *Bits) Clear(i uint64) {
	if i >= b.n {
		panic(rangeError{op: "Clear", i: i, n: b.n})
	}
	if b.borrowed {
		b.materialize()
	}
	b.words[i>>6] &^= 1 << (i & 63)
}

// Test reports whether bit i is 1. It panics if i is out of range.
func (b *Bits) Test(i uint64) bool {
	if i >= b.n {
		panic(rangeError{op: "Test", i: i, n: b.n})
	}
	return b.words[i>>6]&(1<<(i&63)) != 0
}

// OnesCount returns the number of set bits.
func (b *Bits) OnesCount() uint64 {
	var c uint64
	for _, w := range b.words {
		c += uint64(bits.OnesCount64(w))
	}
	return c
}

// FillRatio returns the fraction of set bits, in [0,1].
// It returns 0 for an empty vector.
func (b *Bits) FillRatio() float64 {
	if b.n == 0 {
		return 0
	}
	return float64(b.OnesCount()) / float64(b.n)
}

// Reset clears every bit.
func (b *Bits) Reset() {
	if b.borrowed {
		// The result is all-zero regardless of the borrowed payload, so
		// allocate fresh instead of copying first.
		b.words = make([]uint64, len(b.words))
		b.borrowed = false
		return
	}
	for i := range b.words {
		b.words[i] = 0
	}
}

// Clone returns a deep copy of the vector.
func (b *Bits) Clone() *Bits {
	c := &Bits{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// Equal reports whether two vectors have identical length and contents.
func (b *Bits) Equal(o *Bits) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// rangeError is the panic value of an out-of-range index. The message is
// formatted only when the panic is reported, which keeps the formatting
// call out of the accessors so the hot ones (Test, Lanes.Get) stay within
// the compiler's inlining budget.
type rangeError struct {
	op   string
	i, n uint64
}

func (e rangeError) Error() string {
	return fmt.Sprintf("bitset: %s(%d) out of range [0,%d)", e.op, e.i, e.n)
}

const bitsMagic = uint32(0xb1750001)

// MarshalBinary encodes the vector as a self-describing byte stream.
func (b *Bits) MarshalBinary() ([]byte, error) {
	out := make([]byte, 12+len(b.words)*8)
	binary.LittleEndian.PutUint32(out[0:4], bitsMagic)
	binary.LittleEndian.PutUint64(out[4:12], b.n)
	for i, w := range b.words {
		binary.LittleEndian.PutUint64(out[12+i*8:], w)
	}
	return out, nil
}

// UnmarshalBinaryBorrow decodes a stream produced by MarshalBinary
// without copying the payload when possible: if the word payload inside
// data is 8-byte aligned in memory (and the host is little-endian), the
// decoded vector aliases data directly. The caller must keep data alive
// and unmodified for as long as the vector is read; the first mutating
// call (Set, Clear, ...) copies the payload into owned memory and
// releases the alias. When aliasing is not possible the payload is
// copied. There is deliberately no UnmarshalBinary: the
// encoding.BinaryUnmarshaler contract forbids retaining data.
func (b *Bits) UnmarshalBinaryBorrow(data []byte) error {
	if len(data) < 12 {
		return errors.New("bitset: truncated header")
	}
	if binary.LittleEndian.Uint32(data[0:4]) != bitsMagic {
		return errors.New("bitset: bad magic")
	}
	n := binary.LittleEndian.Uint64(data[4:12])
	// Bound n before any length arithmetic: (n+63)/64 wraps for n near
	// 2^64, which would make a 12-byte payload decode as a vector claiming
	// 2^64-1 bits and panic the first Test. The payload length field is
	// authoritative and already in hand, so derive the bound from it.
	maxBits := uint64(len(data)-12) * 8
	if n > maxBits {
		return fmt.Errorf("bitset: declared %d bits exceeds %d payload bits", n, maxBits)
	}
	nw := int((n + 63) / 64)
	if len(data) != 12+nw*8 {
		return fmt.Errorf("bitset: want %d payload bytes, have %d", nw*8, len(data)-12)
	}
	b.n = n
	if words, ok := borrowWords(data[12:], nw); ok {
		b.words = words
		b.borrowed = true
		return nil
	}
	b.borrowed = false
	b.words = make([]uint64, nw)
	for i := range b.words {
		b.words[i] = binary.LittleEndian.Uint64(data[12+i*8:])
	}
	return nil
}

// Borrowed reports whether the vector currently aliases caller-provided
// memory (zero-copy load, no mutation yet).
func (b *Bits) Borrowed() bool { return b.borrowed }

// materialize copies a borrowed payload into owned memory so it can be
// mutated without touching (or racing on) the snapshot buffer.
func (b *Bits) materialize() {
	owned := make([]uint64, len(b.words))
	copy(owned, b.words)
	b.words = owned
	b.borrowed = false
}
