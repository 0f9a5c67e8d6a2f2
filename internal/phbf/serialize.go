package phbf

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/bitset"
)

// Serialization lets a partitioned-hashing Bloom filter built once be
// shipped to query nodes or framed into a serving snapshot
// (internal/snapshot). The query-time state is the bit array plus the
// per-group winning seeds — the greedy construction's only output — so
// both travel. The format is self-describing and versioned:
//
//	magic u32 "PHBF" | version u8 | k u8 | reserved u8×2 | groups u32 |
//	seeds: groups × u64 | bitsLen u64 | bits (bitset.Bits wire format)
//
// The seed table is fixed-width and precedes the bits block, so the bit
// array's payload offset is a pure function of the group count
// (WireAlignOffset) and zero-copy container loads can align it.

// Version 2: probe positions derive from the shared base hash
// (hashes.Base) instead of per-family key hashing. Version-1 containers
// hold bits under the old derivation and must not be served by this
// code, so decoding rejects them.
const filterVersion = 2

// wireMagic is the on-wire magic: "PHBF" as a little-endian u32.
const wireMagic = uint32(0x46424850)

// headerSize is the fixed prefix before the seed table.
const headerSize = 12

// maxWireK bounds the per-key hash count of a decoded filter, matching
// the other wire formats' ceiling.
const maxWireK = 64

// maxWireGroups bounds the group count a decoded filter may declare;
// construction defaults to 64, and a million groups of seed metadata is
// already far past any sane space accounting.
const maxWireGroups = 1 << 20

// WireAlignOffset returns the offset within a MarshalBinary payload of
// the first word of the bit array for a filter with the given group
// count: header, seed table, block length, Bits header. Containers that
// want zero-copy loads pad their frames so this offset lands 8-byte
// aligned in the mapped buffer.
func WireAlignOffset(groups int) int { return headerSize + groups*8 + 8 + 12 }

// Groups returns the number of key partitions.
func (f *Filter) Groups() int { return f.groups }

// MarshalBinary encodes the filter's query-time state.
func (f *Filter) MarshalBinary() ([]byte, error) {
	bits, err := f.bits.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, headerSize+len(f.seeds)*8+8, headerSize+len(f.seeds)*8+8+len(bits))
	binary.LittleEndian.PutUint32(out[0:4], wireMagic)
	out[4] = filterVersion
	out[5] = uint8(f.k)
	binary.LittleEndian.PutUint32(out[8:12], uint32(f.groups))
	for i, seed := range f.seeds {
		binary.LittleEndian.PutUint64(out[headerSize+i*8:], seed)
	}
	binary.LittleEndian.PutUint64(out[headerSize+len(f.seeds)*8:], uint64(len(bits)))
	return append(out, bits...), nil
}

// UnmarshalFilter decodes a filter produced by MarshalBinary
// without copying the bit array when it is 8-byte aligned inside data:
// the filter then serves queries directly from data, which the caller
// must keep alive and unmodified. A PHBF is static — the partition
// greedy cannot absorb inserts — so the borrow is never released by a
// mutation. The seed table is always copied (it is small).
func UnmarshalFilter(data []byte) (*Filter, error) {
	if len(data) < headerSize {
		return nil, errors.New("phbf: truncated filter header")
	}
	if binary.LittleEndian.Uint32(data[0:4]) != wireMagic {
		return nil, errors.New("phbf: bad filter magic")
	}
	if data[4] != filterVersion {
		return nil, fmt.Errorf("phbf: unsupported filter version %d", data[4])
	}
	k := int(data[5])
	if k < 1 || k > maxWireK {
		return nil, fmt.Errorf("phbf: k = %d out of range [1,%d]", k, maxWireK)
	}
	// groups divides every query's partition hash, so zero would panic
	// Contains; bound it against both a sanity ceiling and the actual
	// byte length before allocating the seed table.
	groups64 := uint64(binary.LittleEndian.Uint32(data[8:12]))
	if groups64 == 0 || groups64 > maxWireGroups || groups64*8 > uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("phbf: group count %d out of range for %d bytes", groups64, len(data))
	}
	groups := int(groups64)
	seedEnd := headerSize + groups*8
	if len(data) < seedEnd+8 {
		return nil, errors.New("phbf: truncated seed table")
	}
	seeds := make([]uint64, groups)
	for i := range seeds {
		seeds[i] = binary.LittleEndian.Uint64(data[headerSize+i*8:])
	}
	bitsLen64 := binary.LittleEndian.Uint64(data[seedEnd : seedEnd+8])
	// Compare in uint64 space before narrowing (32-bit hosts).
	if bitsLen64 != uint64(len(data)-seedEnd-8) {
		return nil, errors.New("phbf: bits block length mismatch")
	}

	var bits bitset.Bits
	if err := bits.UnmarshalBinaryBorrow(data[seedEnd+8:]); err != nil {
		return nil, fmt.Errorf("phbf: %w", err)
	}
	if bits.Len() == 0 {
		return nil, errors.New("phbf: zero-length filter")
	}
	return &Filter{
		bits:   &bits,
		k:      k,
		groups: groups,
		seeds:  seeds,
	}, nil
}

// Borrowed reports whether the filter still serves from the buffer it
// was decoded from (UnmarshalFilter on an aligned payload).
func (f *Filter) Borrowed() bool { return f.bits.Borrowed() }
