package bitset

import "unsafe"

// Zero-copy loading. The wire format stores word payloads little-endian,
// which matches the in-memory layout of []uint64 on little-endian hosts —
// so a decoded vector can serve reads straight out of the encoded buffer
// instead of copying a multi-GB payload word by word. borrowWords is the
// one place that reinterpretation happens; Bits and Lanes both go through
// it and both fall back to copying whenever aliasing would be unsound.

// hostLittleEndian reports whether the native byte order matches the wire
// format. On big-endian hosts every decode copies.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// borrowWords reinterprets payload as nw uint64 words without copying,
// when that is sound: the host is little-endian, the payload is exactly
// nw words long, and its base address is 8-byte aligned (an unaligned
// []uint64 is undefined on strict-alignment architectures). Returns
// ok=false to tell the caller to copy instead.
func borrowWords(payload []byte, nw int) ([]uint64, bool) {
	if !hostLittleEndian || nw == 0 || len(payload) != nw*8 {
		return nil, false
	}
	p := unsafe.Pointer(unsafe.SliceData(payload))
	if uintptr(p)%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*uint64)(p), nw), true
}
