package wbf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/bitset"
)

// Serialization lets a Weighted Bloom filter built once be shipped to
// query nodes or framed into a serving snapshot (internal/snapshot).
// WBF is the one baseline whose query-time state is more than an array:
// the per-key hash-count assignment (the cost cache) must travel with
// the bits, or a restored filter would probe cached negatives with the
// wrong k and change their false-positive behavior. The format is
// self-describing and versioned:
//
//	magic u32 "WBFF" | version u8 | baseK u8 | minK u8 | maxK u8 |
//	avgCost f64 | cacheCount u64 | bitsLen u64 |
//	bits (bitset.Bits wire format) |
//	cache entries: cacheCount × (keyLen u32 | k u8 | key bytes)
//
// The bit array precedes the variable-length cache so its payload
// offset is a constant (WireAlignOffset) and zero-copy container loads
// can align it. Cache entries are written in ascending key order, so
// marshal → unmarshal → re-marshal is byte-identical — the invariant
// the cross-backend property suite pins for every wire format.

// Version 2: probe positions derive from the shared base hash
// (hashes.Base) instead of per-family key hashing. Version-1 containers
// hold bits under the old derivation and must not be served by this
// code, so decoding rejects them.
const filterVersion = 2

// wireMagic is the on-wire magic: "WBFF" as a little-endian u32.
const wireMagic = uint32(0x46464257)

// headerSize is the fixed prefix before the length-prefixed bits block.
const headerSize = 32

// maxK bounds the per-key hash count a decoded filter may carry; it
// matches the bloom package's k ceiling and keeps a hostile cache entry
// from turning every query into a 255-probe loop.
const maxWireK = 64

// WireAlignOffset is the offset within a MarshalBinary payload of the
// first word of the bit array: header, block length, Bits header.
// Containers that want zero-copy loads pad their frames so this offset
// lands 8-byte aligned in the mapped buffer.
const WireAlignOffset = headerSize + 12

// Add inserts a key post-construction so it is queryable immediately
// with zero false negatives. The insert must cover every position a
// later Contains will probe: for most keys that is the base hash count,
// but a key in the cost cache is probed with its cached (possibly
// elevated) count, so Add inserts with whichever is larger — positions
// are a prefix of one double-hash sequence, so the larger count covers
// both. Add must be externally synchronized against readers (the shard
// layer provides that); on a borrowed filter (Borrowed) the first Add copies
// the bit array before mutating it, never writing the snapshot buffer.
func (f *Filter) Add(key []byte) {
	f.add(key, f.insertK(key))
}

// insertK returns the hash count an insert of key must set so that any
// later Contains — which probes the cached count when key is a cached
// costly negative, the base count otherwise — finds every bit set.
func (f *Filter) insertK(key []byte) int {
	k := f.baseK
	if ck, ok := f.kCache[string(key)]; ok && int(ck) > k {
		k = int(ck)
	}
	return k
}

// MarshalBinary encodes the filter's query-time state.
func (f *Filter) MarshalBinary() ([]byte, error) {
	bits, err := f.bits.MarshalBinary()
	if err != nil {
		return nil, err
	}
	cacheKeys := make([]string, 0, len(f.kCache))
	for k := range f.kCache {
		cacheKeys = append(cacheKeys, k)
	}
	sort.Strings(cacheKeys)

	cacheBytes := 0
	for _, k := range cacheKeys {
		cacheBytes += 4 + 1 + len(k)
	}
	out := make([]byte, headerSize, headerSize+len(bits)+cacheBytes)
	binary.LittleEndian.PutUint32(out[0:4], wireMagic)
	out[4] = filterVersion
	out[5] = uint8(f.baseK)
	out[6] = uint8(f.minK)
	out[7] = uint8(f.maxK)
	binary.LittleEndian.PutUint64(out[8:16], math.Float64bits(f.avgCost))
	binary.LittleEndian.PutUint64(out[16:24], uint64(len(cacheKeys)))
	binary.LittleEndian.PutUint64(out[24:32], uint64(len(bits)))
	out = append(out, bits...)
	var entry [5]byte
	for _, k := range cacheKeys {
		binary.LittleEndian.PutUint32(entry[0:4], uint32(len(k)))
		entry[4] = f.kCache[k]
		out = append(out, entry[:]...)
		out = append(out, k...)
	}
	return out, nil
}

// UnmarshalFilter decodes a filter produced by MarshalBinary
// without copying the bit array when it is 8-byte aligned inside data:
// the filter then serves queries directly from data, which the caller
// must keep alive and unmodified. A post-load Add copies the array
// before mutating it (copy-on-first-write), never writing data. The
// cost cache is always copied (it is rebuilt as a map either way).
func UnmarshalFilter(data []byte) (*Filter, error) {
	if len(data) < headerSize {
		return nil, errors.New("wbf: truncated filter header")
	}
	if binary.LittleEndian.Uint32(data[0:4]) != wireMagic {
		return nil, errors.New("wbf: bad filter magic")
	}
	if data[4] != filterVersion {
		return nil, fmt.Errorf("wbf: unsupported filter version %d", data[4])
	}
	baseK, minK, maxK := int(data[5]), int(data[6]), int(data[7])
	if baseK < 1 || baseK > maxWireK || minK < 1 || maxK > maxWireK || minK > baseK || baseK > maxK {
		return nil, fmt.Errorf("wbf: hash counts base=%d min=%d max=%d out of range", baseK, minK, maxK)
	}
	avgCost := math.Float64frombits(binary.LittleEndian.Uint64(data[8:16]))
	if math.IsNaN(avgCost) || math.IsInf(avgCost, 0) || avgCost < 0 {
		return nil, fmt.Errorf("wbf: average cost %v out of range", avgCost)
	}
	cacheCount64 := binary.LittleEndian.Uint64(data[16:24])
	bitsLen64 := binary.LittleEndian.Uint64(data[24:32])
	rest := uint64(len(data) - headerSize)
	if bitsLen64 > rest {
		return nil, errors.New("wbf: bits block length out of bounds")
	}
	// Every cache entry costs at least its 5-byte header, so the byte
	// length bounds the plausible entry count — reject before allocating
	// the map a hostile count would size.
	if cacheCount64 > (rest-bitsLen64)/5 {
		return nil, fmt.Errorf("wbf: implausible cache entry count %d for %d bytes", cacheCount64, rest-bitsLen64)
	}

	var bits bitset.Bits
	bitsEnd := headerSize + int(bitsLen64)
	if err := bits.UnmarshalBinaryBorrow(data[headerSize:bitsEnd]); err != nil {
		return nil, fmt.Errorf("wbf: %w", err)
	}
	if bits.Len() == 0 {
		return nil, errors.New("wbf: zero-length filter")
	}

	cache := make(map[string]uint8, cacheCount64)
	pos := bitsEnd
	var prevKey string
	for i := uint64(0); i < cacheCount64; i++ {
		if len(data)-pos < 5 {
			return nil, fmt.Errorf("wbf: truncated cache entry %d", i)
		}
		keyLen := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
		k := int(data[pos+4])
		pos += 5
		if keyLen > len(data)-pos {
			return nil, fmt.Errorf("wbf: cache entry %d key length %d out of bounds", i, keyLen)
		}
		if k < minK || k > maxK {
			return nil, fmt.Errorf("wbf: cache entry %d hash count %d outside [%d,%d]", i, k, minK, maxK)
		}
		key := string(data[pos : pos+keyLen])
		// Ascending unique order is what MarshalBinary writes; enforcing
		// it keeps re-marshal byte-identical and rejects duplicate keys.
		if i > 0 && key <= prevKey {
			return nil, fmt.Errorf("wbf: cache entry %d out of order", i)
		}
		prevKey = key
		cache[key] = uint8(k)
		pos += keyLen
	}
	if pos != len(data) {
		return nil, errors.New("wbf: trailing bytes after cache entries")
	}
	return &Filter{
		bits:    &bits,
		baseK:   baseK,
		minK:    minK,
		maxK:    maxK,
		kCache:  cache,
		avgCost: avgCost,
	}, nil
}

// Borrowed reports whether the filter still serves from the buffer it
// was decoded from (UnmarshalFilter before any mutation).
func (f *Filter) Borrowed() bool { return f.bits.Borrowed() }
