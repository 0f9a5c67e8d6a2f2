// Wire formats for the learned filter family. Each format serializes
// the trained model verbatim (raw IEEE-754 little-endian float bits, so
// a decode → re-marshal round trip is byte-identical), the family's
// scalar state (τ, group boundaries, per-group hash counts), and the
// bloom blocks through the existing BLMF layout. Decoders bounds-check
// every length and count before allocating: these payloads arrive from
// snapshot containers and the network, so a hostile frame must fail
// cleanly instead of panicking or allocating unbounded memory.
package learned

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bloom"
)

// Wire magics, little-endian ASCII.
const (
	lbfMagic   = 0x3146424C // "LBF1"
	slbfMagic  = 0x31424C53 // "SLB1"
	adabfMagic = 0x31424441 // "ADB1"
)

const wireVersion = 1

// Model-block kind bytes.
const (
	modelNone     = 0
	modelLogistic = 1
	modelGRU      = 2
)

// Decode-time sanity bounds. The builders produce featureDim (512)
// logistic weights and 16×32 GRU dims; the caps leave generous headroom
// while keeping a hostile count from driving a giant allocation.
const (
	maxLogisticDim = 1 << 16
	maxGRUDim      = 1 << 12
	maxAdaGroups   = 256
)

// appendModel serializes m as a self-describing trailing block.
func appendModel(dst []byte, m Model) ([]byte, error) {
	switch m := m.(type) {
	case nil:
		return append(dst, modelNone), nil
	case *Logistic:
		dst = append(dst, modelLogistic)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.w)))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(m.bias))
		for _, w := range m.w {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(w))
		}
		return dst, nil
	case *GRU:
		dst = append(dst, modelGRU)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(m.hidden))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(m.embDim))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(m.maxLen))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(m.bOut))
		for _, s := range [][]float32{m.emb, m.wz, m.wr, m.wh, m.uz, m.ur, m.uh, m.bz, m.br, m.bh, m.wOut} {
			for _, w := range s {
				dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(w))
			}
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("learned: cannot serialize model type %T", m)
	}
}

// decodeModel parses a model block and returns the bytes consumed. The
// model is always copied into owned memory — it is a few KiB and the
// scoring loops index it heavily, so borrowing buys nothing.
func decodeModel(data []byte) (Model, int, error) {
	if len(data) < 1 {
		return nil, 0, fmt.Errorf("learned: truncated model block")
	}
	switch data[0] {
	case modelNone:
		return nil, 1, nil
	case modelLogistic:
		if len(data) < 9 {
			return nil, 0, fmt.Errorf("learned: truncated logistic header")
		}
		dim := binary.LittleEndian.Uint32(data[1:5])
		if dim == 0 || dim > maxLogisticDim {
			return nil, 0, fmt.Errorf("learned: hostile logistic weight count %d", dim)
		}
		need := 9 + int(dim)*4
		if len(data) < need {
			return nil, 0, fmt.Errorf("learned: logistic model needs %d bytes, have %d", need, len(data))
		}
		m := &Logistic{
			w:    make([]float32, dim),
			bias: math.Float32frombits(binary.LittleEndian.Uint32(data[5:9])),
		}
		for i := range m.w {
			m.w[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[9+4*i:]))
		}
		return m, need, nil
	case modelGRU:
		const header = 1 + 2 + 2 + 2 + 4
		if len(data) < header {
			return nil, 0, fmt.Errorf("learned: truncated GRU header")
		}
		h := int(binary.LittleEndian.Uint16(data[1:3]))
		d := int(binary.LittleEndian.Uint16(data[3:5]))
		maxLen := int(binary.LittleEndian.Uint16(data[5:7]))
		if h == 0 || h > maxGRUDim || d == 0 || d > maxGRUDim || maxLen == 0 {
			return nil, 0, fmt.Errorf("learned: hostile GRU dims hidden=%d emb=%d maxlen=%d", h, d, maxLen)
		}
		total := 256*d + 3*h*d + 3*h*h + 3*h + h
		need := header + total*4
		if len(data) < need {
			return nil, 0, fmt.Errorf("learned: GRU model needs %d bytes, have %d", need, len(data))
		}
		g := &GRU{
			hidden: h,
			embDim: d,
			maxLen: maxLen,
			bOut:   math.Float32frombits(binary.LittleEndian.Uint32(data[7:11])),
		}
		off := header
		read := func(n int) []float32 {
			s := make([]float32, n)
			for i := range s {
				s[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[off+4*i:]))
			}
			off += 4 * n
			return s
		}
		g.emb = read(256 * d)
		g.wz, g.wr, g.wh = read(h*d), read(h*d), read(h*d)
		g.uz, g.ur, g.uh = read(h*h), read(h*h), read(h*h)
		g.bz, g.br, g.bh = read(h), read(h), read(h)
		g.wOut = read(h)
		return g, need, nil
	default:
		return nil, 0, fmt.Errorf("learned: unknown model kind %d", data[0])
	}
}

// --- LBF ----------------------------------------------------------------
//
// Layout (all integers little-endian):
//
//	0:4   magic "LBF1"
//	4     version (1)
//	5     flags (bit0: backup filter present)
//	6:12  reserved (0) — sized so the backup's bit array (at header +
//	      bloom.WireAlignOffset = 64) starts on an 8-byte boundary,
//	      keeping snapshot-container re-serialization byte-identical
//	12:20 τ as float64 bits
//	20:28 backup block length
//	28:   backup BLMF block
//	...   model block

const lbfHeaderSize = 28

// MarshalBinary encodes the filter in the LBF1 wire format.
func (l *LBF) MarshalBinary() ([]byte, error) {
	var backupBytes []byte
	if l.backup != nil {
		b, err := l.backup.MarshalBinary()
		if err != nil {
			return nil, err
		}
		backupBytes = b
	}
	buf := make([]byte, 0, lbfHeaderSize+len(backupBytes)+9+4*featureDim)
	buf = binary.LittleEndian.AppendUint32(buf, lbfMagic)
	var flags byte
	if l.backup != nil {
		flags |= 1
	}
	buf = append(buf, wireVersion, flags, 0, 0, 0, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(l.tau))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(backupBytes)))
	buf = append(buf, backupBytes...)
	return appendModel(buf, l.model)
}

// WireAlignOffset places the backup filter's bit array for zero-copy
// container loads.
func (l *LBF) WireAlignOffset() int {
	if l.backup != nil {
		return lbfHeaderSize + bloom.WireAlignOffset
	}
	return 8
}

// Borrowed reports whether the filter still serves from the decode
// buffer.
func (l *LBF) Borrowed() bool { return l.backup != nil && l.backup.Borrowed() }

// UnmarshalLBF decodes an LBF1 payload, borrowing the backup filter's bit
// array from data where alignment allows (see bloom.UnmarshalFilter).
func UnmarshalLBF(data []byte) (*LBF, error) {
	if len(data) < lbfHeaderSize {
		return nil, fmt.Errorf("learned: LBF payload too short (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:4]); m != lbfMagic {
		return nil, fmt.Errorf("learned: bad LBF magic %#x", m)
	}
	if v := data[4]; v != wireVersion {
		return nil, fmt.Errorf("learned: unsupported LBF version %d", v)
	}
	flags := data[5]
	if flags&^1 != 0 {
		return nil, fmt.Errorf("learned: unknown LBF flags %#x", flags)
	}
	for _, b := range data[6:12] {
		if b != 0 {
			return nil, fmt.Errorf("learned: nonzero LBF reserved bytes")
		}
	}
	tau := math.Float64frombits(binary.LittleEndian.Uint64(data[12:20]))
	backupLen := binary.LittleEndian.Uint64(data[20:28])
	if backupLen > uint64(len(data)-lbfHeaderSize) {
		return nil, fmt.Errorf("learned: LBF backup length %d exceeds payload", backupLen)
	}
	hasBackup := flags&1 != 0
	if !hasBackup && backupLen != 0 {
		return nil, fmt.Errorf("learned: LBF backup bytes present without flag")
	}
	l := &LBF{tau: tau, name: "LBF"}
	rest := data[lbfHeaderSize+backupLen:]
	if hasBackup {
		b, err := bloom.UnmarshalFilter(data[lbfHeaderSize : lbfHeaderSize+backupLen])
		if err != nil {
			return nil, fmt.Errorf("learned: LBF backup: %w", err)
		}
		l.backup = b
	}
	model, n, err := decodeModel(rest)
	if err != nil {
		return nil, err
	}
	if n != len(rest) {
		return nil, fmt.Errorf("learned: %d trailing bytes after LBF model", len(rest)-n)
	}
	l.model = model
	if _, ok := model.(*GRU); ok {
		l.name = "LBF(GRU)"
	}
	return l, nil
}

// --- SLBF ---------------------------------------------------------------
//
// Layout:
//
//	0:4   magic "SLB1"
//	4     version (1)
//	5     flags (bit0: initial filter, bit1: backup filter)
//	6:12  reserved (0) — sized so the initial filter's bit array (at
//	      header + bloom.WireAlignOffset = 64) starts on an 8-byte
//	      boundary
//	12:20 τ as float64 bits
//	20:28 initial block length
//	28:   initial BLMF block
//	...   backup block length (u64)
//	...   backup BLMF block
//	...   model block

const slbfHeaderSize = 28

// MarshalBinary encodes the sandwich in the SLB1 wire format.
func (s *SLBF) MarshalBinary() ([]byte, error) {
	var initialBytes, backupBytes []byte
	var err error
	if s.initial != nil {
		if initialBytes, err = s.initial.MarshalBinary(); err != nil {
			return nil, err
		}
	}
	if s.lbf.backup != nil {
		if backupBytes, err = s.lbf.backup.MarshalBinary(); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, 0, slbfHeaderSize+len(initialBytes)+8+len(backupBytes)+9+4*featureDim)
	buf = binary.LittleEndian.AppendUint32(buf, slbfMagic)
	var flags byte
	if s.initial != nil {
		flags |= 1
	}
	if s.lbf.backup != nil {
		flags |= 2
	}
	buf = append(buf, wireVersion, flags, 0, 0, 0, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.lbf.tau))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(initialBytes)))
	buf = append(buf, initialBytes...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(backupBytes)))
	buf = append(buf, backupBytes...)
	return appendModel(buf, s.lbf.model)
}

// WireAlignOffset places the initial filter's bit array (every query
// touches it first; the backup only sees survivors).
func (s *SLBF) WireAlignOffset() int {
	if s.initial != nil {
		return slbfHeaderSize + bloom.WireAlignOffset
	}
	if s.lbf.backup != nil {
		return slbfHeaderSize + 8 + bloom.WireAlignOffset
	}
	return 8
}

// Borrowed reports whether any block still serves from the decode buffer.
func (s *SLBF) Borrowed() bool {
	return (s.initial != nil && s.initial.Borrowed()) || s.lbf.Borrowed()
}

// UnmarshalSLBF decodes an SLB1 payload zero-copy where alignment allows.
func UnmarshalSLBF(data []byte) (*SLBF, error) {
	if len(data) < slbfHeaderSize {
		return nil, fmt.Errorf("learned: SLBF payload too short (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:4]); m != slbfMagic {
		return nil, fmt.Errorf("learned: bad SLBF magic %#x", m)
	}
	if v := data[4]; v != wireVersion {
		return nil, fmt.Errorf("learned: unsupported SLBF version %d", v)
	}
	flags := data[5]
	if flags&^3 != 0 {
		return nil, fmt.Errorf("learned: unknown SLBF flags %#x", flags)
	}
	for _, b := range data[6:12] {
		if b != 0 {
			return nil, fmt.Errorf("learned: nonzero SLBF reserved bytes")
		}
	}
	tau := math.Float64frombits(binary.LittleEndian.Uint64(data[12:20]))
	initialLen := binary.LittleEndian.Uint64(data[20:28])
	if initialLen > uint64(len(data)-slbfHeaderSize) {
		return nil, fmt.Errorf("learned: SLBF initial length %d exceeds payload", initialLen)
	}
	if flags&1 == 0 && initialLen != 0 {
		return nil, fmt.Errorf("learned: SLBF initial bytes present without flag")
	}
	out := &SLBF{lbf: &LBF{tau: tau, name: "SLBF"}}
	if flags&1 != 0 {
		b, err := bloom.UnmarshalFilter(data[slbfHeaderSize : slbfHeaderSize+initialLen])
		if err != nil {
			return nil, fmt.Errorf("learned: SLBF initial: %w", err)
		}
		out.initial = b
	}
	rest := data[slbfHeaderSize+initialLen:]
	if len(rest) < 8 {
		return nil, fmt.Errorf("learned: truncated SLBF backup length")
	}
	backupLen := binary.LittleEndian.Uint64(rest[0:8])
	if backupLen > uint64(len(rest)-8) {
		return nil, fmt.Errorf("learned: SLBF backup length %d exceeds payload", backupLen)
	}
	if flags&2 == 0 && backupLen != 0 {
		return nil, fmt.Errorf("learned: SLBF backup bytes present without flag")
	}
	if flags&2 != 0 {
		b, err := bloom.UnmarshalFilter(rest[8 : 8+backupLen])
		if err != nil {
			return nil, fmt.Errorf("learned: SLBF backup: %w", err)
		}
		out.lbf.backup = b
	}
	rest = rest[8+backupLen:]
	model, n, err := decodeModel(rest)
	if err != nil {
		return nil, err
	}
	if n != len(rest) {
		return nil, fmt.Errorf("learned: %d trailing bytes after SLBF model", len(rest)-n)
	}
	out.lbf.model = model
	return out, nil
}

// --- Ada-BF -------------------------------------------------------------
//
// Layout:
//
//	0:4   magic "ADB1"
//	4     version (1)
//	5     flags (bit0: bit array present)
//	6:8   group count g (u16, = len(ks))
//	8:12  reserved (0) — sized so the shared bit array (at header +
//	      bloom.WireAlignOffset = 56) starts on an 8-byte boundary
//	12:20 bit-array block length
//	20:   bit-array BLMF block
//	...   boundaries: (g-1) × float64 bits
//	...   ks: g × u8
//	...   model block

const adabfHeaderSize = 20

// MarshalBinary encodes the filter in the ADB1 wire format.
func (a *AdaBF) MarshalBinary() ([]byte, error) {
	if len(a.ks) == 0 || len(a.ks) > maxAdaGroups || len(a.boundaries) != len(a.ks)-1 {
		return nil, fmt.Errorf("learned: Ada-BF has inconsistent groups (%d ks, %d boundaries)", len(a.ks), len(a.boundaries))
	}
	var bitsBytes []byte
	if a.bits != nil {
		b, err := a.bits.MarshalBinary()
		if err != nil {
			return nil, err
		}
		bitsBytes = b
	}
	buf := make([]byte, 0, adabfHeaderSize+len(bitsBytes)+9*len(a.ks)+9+4*featureDim)
	buf = binary.LittleEndian.AppendUint32(buf, adabfMagic)
	var flags byte
	if a.bits != nil {
		flags |= 1
	}
	buf = append(buf, wireVersion, flags)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(a.ks)))
	buf = append(buf, 0, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(bitsBytes)))
	buf = append(buf, bitsBytes...)
	for _, b := range a.boundaries {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b))
	}
	for _, k := range a.ks {
		buf = append(buf, byte(k))
	}
	return appendModel(buf, a.model)
}

// WireAlignOffset places the shared bit array.
func (a *AdaBF) WireAlignOffset() int {
	if a.bits != nil {
		return adabfHeaderSize + bloom.WireAlignOffset
	}
	return 8
}

// Borrowed reports whether the bit array still serves from the decode
// buffer.
func (a *AdaBF) Borrowed() bool { return a.bits != nil && a.bits.Borrowed() }

// UnmarshalAdaBF decodes an ADB1 payload zero-copy where alignment allows.
func UnmarshalAdaBF(data []byte) (*AdaBF, error) {
	if len(data) < adabfHeaderSize {
		return nil, fmt.Errorf("learned: Ada-BF payload too short (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:4]); m != adabfMagic {
		return nil, fmt.Errorf("learned: bad Ada-BF magic %#x", m)
	}
	if v := data[4]; v != wireVersion {
		return nil, fmt.Errorf("learned: unsupported Ada-BF version %d", v)
	}
	flags := data[5]
	if flags&^1 != 0 {
		return nil, fmt.Errorf("learned: unknown Ada-BF flags %#x", flags)
	}
	groups := int(binary.LittleEndian.Uint16(data[6:8]))
	if groups < 1 || groups > maxAdaGroups {
		return nil, fmt.Errorf("learned: hostile Ada-BF group count %d", groups)
	}
	for _, b := range data[8:12] {
		if b != 0 {
			return nil, fmt.Errorf("learned: nonzero Ada-BF reserved bytes")
		}
	}
	bitsLen := binary.LittleEndian.Uint64(data[12:20])
	if bitsLen > uint64(len(data)-adabfHeaderSize) {
		return nil, fmt.Errorf("learned: Ada-BF bit-array length %d exceeds payload", bitsLen)
	}
	if flags&1 == 0 && bitsLen != 0 {
		return nil, fmt.Errorf("learned: Ada-BF bit-array bytes present without flag")
	}
	a := &AdaBF{}
	if flags&1 != 0 {
		b, err := bloom.UnmarshalFilter(data[adabfHeaderSize : adabfHeaderSize+bitsLen])
		if err != nil {
			return nil, fmt.Errorf("learned: Ada-BF bit array: %w", err)
		}
		a.bits = b
	}
	rest := data[adabfHeaderSize+bitsLen:]
	tail := 8*(groups-1) + groups
	if len(rest) < tail {
		return nil, fmt.Errorf("learned: Ada-BF groups need %d bytes, have %d", tail, len(rest))
	}
	a.boundaries = make([]float64, groups-1)
	for i := range a.boundaries {
		a.boundaries[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	a.ks = make([]int, groups)
	for i := range a.ks {
		k := int(rest[8*(groups-1)+i])
		if k < 1 || k > 64 {
			return nil, fmt.Errorf("learned: Ada-BF hash count %d outside [1,64]", k)
		}
		a.ks[i] = k
	}
	rest = rest[tail:]
	model, n, err := decodeModel(rest)
	if err != nil {
		return nil, err
	}
	if n != len(rest) {
		return nil, fmt.Errorf("learned: %d trailing bytes after Ada-BF model", len(rest)-n)
	}
	a.model = model
	return a, nil
}
