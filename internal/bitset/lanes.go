package bitset

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Lanes is a packed array of n unsigned integers, each width bits wide
// (1..64). It backs the Xor filter's fingerprint table and the
// HashExpressor cell array, where per-entry widths of 3..16 bits make
// []uint8/[]uint16 wasteful.
type Lanes struct {
	words []uint64
	n     uint64
	width uint
	mask  uint64
	// borrowed is true while words aliases caller-provided memory (see
	// UnmarshalBinaryBorrow); the first Set copies and clears it.
	borrowed bool
}

// NewLanes returns a lane array with n entries of the given bit width,
// all zero. It panics if width is 0 or greater than 64.
func NewLanes(n uint64, width uint) *Lanes {
	if width == 0 || width > 64 {
		panic(fmt.Sprintf("bitset: invalid lane width %d", width))
	}
	totalBits := n * uint64(width)
	l := &Lanes{
		words: make([]uint64, (totalBits+63)/64),
		n:     n,
		width: width,
	}
	if width == 64 {
		l.mask = ^uint64(0)
	} else {
		l.mask = (1 << width) - 1
	}
	return l
}

// Len returns the number of lanes.
func (l *Lanes) Len() uint64 { return l.n }

// Width returns the bit width of each lane.
func (l *Lanes) Width() uint { return l.width }

// SizeBytes returns the heap footprint of the payload in bytes.
func (l *Lanes) SizeBytes() uint64 { return uint64(len(l.words)) * 8 }

// Get returns lane i. It panics if i is out of range.
func (l *Lanes) Get(i uint64) uint64 {
	if i >= l.n {
		panic(rangeError{op: "lane Get", i: i, n: l.n})
	}
	bitPos := i * uint64(l.width)
	w, off := bitPos>>6, bitPos&63
	v := l.words[w] >> off
	if off+uint64(l.width) > 64 {
		v |= l.words[w+1] << (64 - off)
	}
	return v & l.mask
}

// Set stores v into lane i, truncating v to the lane width.
// It panics if i is out of range.
func (l *Lanes) Set(i uint64, v uint64) {
	if i >= l.n {
		panic(rangeError{op: "lane Set", i: i, n: l.n})
	}
	if l.borrowed {
		l.materialize()
	}
	v &= l.mask
	bitPos := i * uint64(l.width)
	w, off := bitPos>>6, bitPos&63
	l.words[w] = l.words[w]&^(l.mask<<off) | v<<off
	if off+uint64(l.width) > 64 {
		rem := off + uint64(l.width) - 64
		hiMask := (uint64(1) << rem) - 1
		l.words[w+1] = l.words[w+1]&^hiMask | v>>(64-off)
	}
}

// Reset zeroes every lane.
func (l *Lanes) Reset() {
	if l.borrowed {
		l.words = make([]uint64, len(l.words))
		l.borrowed = false
		return
	}
	for i := range l.words {
		l.words[i] = 0
	}
}

// Clone returns a deep copy of the lane array.
func (l *Lanes) Clone() *Lanes {
	c := &Lanes{
		words: make([]uint64, len(l.words)),
		n:     l.n,
		width: l.width,
		mask:  l.mask,
	}
	copy(c.words, l.words)
	return c
}

const lanesMagic = uint32(0xb1750002)

// MarshalBinary encodes the lane array as a self-describing byte stream.
func (l *Lanes) MarshalBinary() ([]byte, error) {
	out := make([]byte, 16+len(l.words)*8)
	binary.LittleEndian.PutUint32(out[0:4], lanesMagic)
	binary.LittleEndian.PutUint32(out[4:8], uint32(l.width))
	binary.LittleEndian.PutUint64(out[8:16], l.n)
	for i, w := range l.words {
		binary.LittleEndian.PutUint64(out[16+i*8:], w)
	}
	return out, nil
}

// UnmarshalBinaryBorrow decodes a stream produced by MarshalBinary
// without copying when possible; see (*Bits).UnmarshalBinaryBorrow for
// the aliasing contract and the copy-on-first-write behavior of Set.
func (l *Lanes) UnmarshalBinaryBorrow(data []byte) error {
	if len(data) < 16 {
		return errors.New("bitset: truncated lanes header")
	}
	if binary.LittleEndian.Uint32(data[0:4]) != lanesMagic {
		return errors.New("bitset: bad lanes magic")
	}
	width := uint(binary.LittleEndian.Uint32(data[4:8]))
	if width == 0 || width > 64 {
		return fmt.Errorf("bitset: invalid lane width %d", width)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	// Bound n before computing n*width: the product wraps for hostile n,
	// which would under-size words while Len() reports the huge n. The
	// payload can hold at most 8·len bits, so that bounds n·width.
	maxBits := uint64(len(data)-16) * 8
	if n > maxBits/uint64(width) {
		return fmt.Errorf("bitset: declared %d lanes of %d bits exceeds %d payload bits", n, width, maxBits)
	}
	nw := int((n*uint64(width) + 63) / 64)
	if len(data) != 16+nw*8 {
		return fmt.Errorf("bitset: want %d payload bytes, have %d", nw*8, len(data)-16)
	}
	l.width = width
	l.n = n
	if width == 64 {
		l.mask = ^uint64(0)
	} else {
		l.mask = (1 << width) - 1
	}
	if words, ok := borrowWords(data[16:], nw); ok {
		l.words = words
		l.borrowed = true
		return nil
	}
	l.borrowed = false
	l.words = make([]uint64, nw)
	for i := range l.words {
		l.words[i] = binary.LittleEndian.Uint64(data[16+i*8:])
	}
	return nil
}

// Borrowed reports whether the lane array currently aliases
// caller-provided memory.
func (l *Lanes) Borrowed() bool { return l.borrowed }

func (l *Lanes) materialize() {
	owned := make([]uint64, len(l.words))
	copy(owned, l.words)
	l.words = owned
	l.borrowed = false
}
