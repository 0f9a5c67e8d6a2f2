package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/hashes"
)

// Serialization lets a Bloom filter built once be shipped to query nodes
// or framed into a serving snapshot (internal/snapshot), mirroring the
// HABF wire format conventions. The format is self-describing and
// versioned:
//
//	magic u32 "BLMF" | version u8 | strategy u8 | k u8 | reserved u8 |
//	count u64 | bitsLen u64 | bits (bitset.Bits wire format)
//
// Only query-time state is serialized; the insert count travels along so
// fill statistics survive a round trip.

// Version 2: probe positions derive from the shared base hash
// (hashes.Base) instead of per-family key hashing. Version-1 containers
// hold bits under the old derivation and must not be served by this
// code, so decoding rejects them.
const filterVersion = 2

// wireMagic is the on-wire magic: "BLMF" as a little-endian u32.
const wireMagic = uint32(0x464d4c42)

// headerSize is the fixed prefix before the length-prefixed bits block.
const headerSize = 16

// WireAlignOffset is the offset within a MarshalBinary payload of the
// first word of the bit array: header, block length, Bits header.
// Containers that want zero-copy loads pad their frames so this offset
// lands 8-byte aligned in the mapped buffer.
const WireAlignOffset = headerSize + 8 + 12

// MarshalBinary encodes the filter's query-time state.
func (f *Filter) MarshalBinary() ([]byte, error) {
	bits, err := f.bits.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, headerSize+8, headerSize+8+len(bits))
	binary.LittleEndian.PutUint32(out[0:4], wireMagic)
	out[4] = filterVersion
	out[5] = uint8(f.strategy)
	out[6] = uint8(f.k)
	binary.LittleEndian.PutUint64(out[8:16], f.n)
	binary.LittleEndian.PutUint64(out[16:24], uint64(len(bits)))
	return append(out, bits...), nil
}

// UnmarshalFilter decodes a filter produced by MarshalBinary
// without copying the bit array when it is 8-byte aligned inside data:
// the filter then serves queries directly from data, which the caller
// must keep alive and unmodified. A post-load Add copies the array
// before mutating it (copy-on-first-write), never writing data.
func UnmarshalFilter(data []byte) (*Filter, error) {
	if len(data) < headerSize+8 {
		return nil, errors.New("bloom: truncated filter header")
	}
	if binary.LittleEndian.Uint32(data[0:4]) != wireMagic {
		return nil, errors.New("bloom: bad filter magic")
	}
	if data[4] != filterVersion {
		return nil, fmt.Errorf("bloom: unsupported filter version %d", data[4])
	}
	strategy := Strategy(data[5])
	k := int(data[6])
	n := binary.LittleEndian.Uint64(data[8:16])
	// Compare in uint64 space before narrowing (32-bit hosts).
	bitsLen64 := binary.LittleEndian.Uint64(data[16:24])
	if bitsLen64 != uint64(len(data)-headerSize-8) {
		return nil, errors.New("bloom: bits block length mismatch")
	}

	f := &Filter{k: k, strategy: strategy, n: n}
	switch strategy {
	case StrategyCorpus:
		corpus := hashes.CorpusFuncs()
		if k > len(corpus) {
			return nil, fmt.Errorf("bloom: k = %d exceeds corpus size %d", k, len(corpus))
		}
		f.fns = corpus[:k]
	case StrategySeeded64, StrategySplit128:
	default:
		return nil, fmt.Errorf("bloom: unknown strategy %d", data[5])
	}
	if k < 1 || k > 64 {
		return nil, fmt.Errorf("bloom: k = %d out of range [1,64]", k)
	}

	var bits bitset.Bits
	if err := bits.UnmarshalBinaryBorrow(data[headerSize+8:]); err != nil {
		return nil, fmt.Errorf("bloom: %w", err)
	}
	if bits.Len() == 0 {
		return nil, errors.New("bloom: zero-length filter")
	}
	f.bits = &bits
	return f, nil
}

// Borrowed reports whether the filter still serves from the buffer it
// was decoded from (UnmarshalFilter before any mutation).
func (f *Filter) Borrowed() bool { return f.bits.Borrowed() }
