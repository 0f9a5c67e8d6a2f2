package xorfilter

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/bitset"
)

// Serialization lets a Xor filter built once be shipped to query nodes
// or framed into a serving snapshot (internal/snapshot). The format is
// self-describing and versioned:
//
//	magic u32 "XORF" | version u8 | reserved u8×3 | seed u64 |
//	blockLen u64 | count u64 | lanesLen u64 |
//	fingerprints (bitset.Lanes wire format)
//
// The fingerprint width travels inside the Lanes encoding.

// Version 2: probe positions derive from the shared base hash
// (hashes.Base) instead of per-family key hashing. Version-1 containers
// hold bits under the old derivation and must not be served by this
// code, so decoding rejects them.
const filterVersion = 2

// wireMagic is the on-wire magic: "XORF" as a little-endian u32.
const wireMagic = uint32(0x46524f58)

// headerSize is the fixed prefix before the length-prefixed lanes block.
const headerSize = 32

// WireAlignOffset is the offset within a MarshalBinary payload of the
// first word of the fingerprint table: header, block length, Lanes
// header. Containers that want zero-copy loads pad their frames so this
// offset lands 8-byte aligned in the mapped buffer.
const WireAlignOffset = headerSize + 8 + 16

// MarshalBinary encodes the filter's query-time state.
func (f *Filter) MarshalBinary() ([]byte, error) {
	lanes, err := f.fingerprints.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, headerSize+8, headerSize+8+len(lanes))
	binary.LittleEndian.PutUint32(out[0:4], wireMagic)
	out[4] = filterVersion
	binary.LittleEndian.PutUint64(out[8:16], f.seed)
	binary.LittleEndian.PutUint64(out[16:24], f.blockLen)
	binary.LittleEndian.PutUint64(out[24:32], f.n)
	binary.LittleEndian.PutUint64(out[32:40], uint64(len(lanes)))
	return append(out, lanes...), nil
}

// UnmarshalFilter decodes a filter produced by MarshalBinary
// without copying the fingerprint table when it is 8-byte aligned inside
// data: the filter then serves queries directly from data, which the
// caller must keep alive and unmodified. A Xor filter is immutable, so
// the borrow is never released by a mutation.
func UnmarshalFilter(data []byte) (*Filter, error) {
	if len(data) < headerSize+8 {
		return nil, errors.New("xorfilter: truncated filter header")
	}
	if binary.LittleEndian.Uint32(data[0:4]) != wireMagic {
		return nil, errors.New("xorfilter: bad filter magic")
	}
	if data[4] != filterVersion {
		return nil, fmt.Errorf("xorfilter: unsupported filter version %d", data[4])
	}
	seed := binary.LittleEndian.Uint64(data[8:16])
	blockLen := binary.LittleEndian.Uint64(data[16:24])
	n := binary.LittleEndian.Uint64(data[24:32])
	lanesLen64 := binary.LittleEndian.Uint64(data[32:40])
	if lanesLen64 != uint64(len(data)-headerSize-8) {
		return nil, errors.New("xorfilter: lanes block length mismatch")
	}

	var lanes bitset.Lanes
	if err := lanes.UnmarshalBinaryBorrow(data[headerSize+8:]); err != nil {
		return nil, fmt.Errorf("xorfilter: %w", err)
	}
	if lanes.Width() == 0 || lanes.Width() > 32 {
		return nil, fmt.Errorf("xorfilter: fingerprint width %d out of range [1,32]", lanes.Width())
	}
	// The three-block slot derivation indexes [0, 3·blockLen); the table
	// must cover exactly that, or a hostile blockLen would panic Get.
	// Derive the bound from the validated table length (3·blockLen would
	// wrap for blockLen near 2^64).
	if blockLen == 0 || lanes.Len()%3 != 0 || blockLen != lanes.Len()/3 {
		return nil, fmt.Errorf("xorfilter: table of %d lanes does not match block length %d", lanes.Len(), blockLen)
	}
	return &Filter{
		fingerprints: &lanes,
		seed:         seed,
		blockLen:     blockLen,
		width:        lanes.Width(),
		n:            n,
	}, nil
}

// Borrowed reports whether the filter still serves from the buffer it
// was decoded from (UnmarshalFilter on an aligned payload).
func (f *Filter) Borrowed() bool { return f.fingerprints.Borrowed() }
