package habf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/bitset"
)

// Serialization lets a filter built once (e.g. in a compaction worker) be
// shipped to query nodes. The format is self-describing and versioned:
//
//	magic u32 | version u8 | flags u8 (bit0 fast) | k u8 | cellBits u8 |
//	seed i64 | len(h0) u8 | h0 bytes | bloom Bits | expressor Lanes
//
// Only the query-time state is serialized; construction statistics travel
// alongside (they are small) so operators can audit a shipped filter.

const filterVersion = 1

// realMagic is the on-wire magic: "HABF" as a little-endian u32.
const realMagic = uint32(0x46424148)

// MarshalBinary encodes the filter.
func (f *Filter) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	var head [17]byte
	binary.LittleEndian.PutUint32(head[0:4], realMagic)
	head[4] = filterVersion
	if f.fast {
		head[5] = 1
	}
	head[6] = uint8(f.k)
	head[7] = uint8(f.he.cells.Width())
	binary.LittleEndian.PutUint64(head[8:16], uint64(f.seed))
	head[16] = uint8(len(f.h0))
	buf.Write(head[:])
	buf.Write(f.h0)

	bloomBytes, err := f.bfBits.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(bloomBytes)))
	buf.Write(lenBuf[:])
	buf.Write(bloomBytes)

	cellBytes, err := f.he.cells.MarshalBinary()
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(cellBytes)))
	buf.Write(lenBuf[:])
	buf.Write(cellBytes)
	return buf.Bytes(), nil
}

// WireAlignOffset returns the offset within a MarshalBinary payload of
// the first word of the Bloom bit array, for a filter with the given k.
// Containers that want zero-copy loads (internal/snapshot) pad their
// frames so this offset lands 8-byte aligned in the mapped buffer; the
// HashExpressor word array then aligns too, because the fixed framing
// between the two arrays (bloom trailer + length prefix + lanes header)
// is a multiple of 8 bytes.
func WireAlignOffset(k int) int {
	return 17 + k + 8 + 12 // header | H0 | block length | Bits header
}

// UnmarshalFilter decodes a filter produced by MarshalBinary without
// copying the two large payloads (Bloom bits, HashExpressor cells) when
// they are 8-byte aligned inside data: the decoded filter then serves
// queries directly from data, which the caller must keep alive and
// unmodified. A post-load Add copies the touched array before mutating it
// (copy-on-first-write), so the buffer is never written. Misaligned or
// big-endian loads silently degrade to copies.
func UnmarshalFilter(data []byte) (*Filter, error) {
	if len(data) < 17 {
		return nil, errors.New("habf: truncated filter header")
	}
	if binary.LittleEndian.Uint32(data[0:4]) != realMagic {
		return nil, errors.New("habf: bad filter magic")
	}
	if data[4] != filterVersion {
		return nil, fmt.Errorf("habf: unsupported filter version %d", data[4])
	}
	fast := data[5]&1 == 1
	k := int(data[6])
	cellBits := uint(data[7])
	seed := int64(binary.LittleEndian.Uint64(data[8:16]))
	h0Len := int(data[16])
	off := 17
	if len(data) < off+h0Len+8 {
		return nil, errors.New("habf: truncated H0")
	}
	h0 := append([]uint8(nil), data[off:off+h0Len]...)
	off += h0Len

	readBlock := func() ([]byte, error) {
		if len(data) < off+8 {
			return nil, errors.New("habf: truncated block length")
		}
		// Compare in uint64 space before narrowing: int(uint64) wraps on
		// 32-bit hosts, where a 2^32+ε length would pass a naive len check
		// and over-slice (or under-allocate downstream).
		n64 := binary.LittleEndian.Uint64(data[off : off+8])
		off += 8
		if n64 > uint64(len(data)-off) {
			return nil, errors.New("habf: truncated block")
		}
		n := int(n64)
		b := data[off : off+n]
		off += n
		return b, nil
	}

	bloomBytes, err := readBlock()
	if err != nil {
		return nil, err
	}
	var bfBits bitset.Bits
	if err := bfBits.UnmarshalBinaryBorrow(bloomBytes); err != nil {
		return nil, fmt.Errorf("habf: bloom: %w", err)
	}
	cellBytes, err := readBlock()
	if err != nil {
		return nil, err
	}
	var cells bitset.Lanes
	if err := cells.UnmarshalBinaryBorrow(cellBytes); err != nil {
		return nil, fmt.Errorf("habf: expressor: %w", err)
	}
	if off != len(data) {
		return nil, errors.New("habf: trailing bytes")
	}
	if cells.Width() != cellBits {
		return nil, errors.New("habf: cell width mismatch")
	}
	if k < 2 || k > 32 || h0Len != k {
		return nil, fmt.Errorf("habf: inconsistent k=%d, |H0|=%d", k, h0Len)
	}
	// Queries reduce positions modulo both lengths.
	if bfBits.Len() == 0 || cells.Len() == 0 {
		return nil, fmt.Errorf("habf: empty array (%d Bloom bits, %d cells)", bfBits.Len(), cells.Len())
	}

	p := Params{
		TotalBits: bfBits.Len() + cells.Len()*uint64(cellBits),
		K:         k,
		CellBits:  cellBits,
		Seed:      seed,
		Fast:      fast,
	}.withDefaults()
	fam := newFamily(p)
	for _, idx := range h0 {
		if int(idx) >= fam.size {
			return nil, fmt.Errorf("habf: H0 index %d outside family of %d", idx, fam.size)
		}
	}
	he := &hashExpressor{
		cells: &cells,
		omega: cells.Len(),
		k:     k,
	}
	return &Filter{
		bfBits:   &bfBits,
		bloomLen: bfBits.Len(),
		he:       he,
		fam:      fam,
		h0:       h0,
		k:        k,
		fast:     fast,
		seed:     seed,
	}, nil
}
