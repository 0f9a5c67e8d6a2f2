// Package snapshot defines the on-disk container that persists a sharded
// filter: a versioned, checksummed envelope around the per-filter wire
// format of internal/habf, so a serving layer can checkpoint its read
// path and restore it after a restart without paying reconstruction.
//
// Layout (all integers little-endian):
//
//	header (64 bytes):
//	  magic u32 "HSNP" | version u8 | flags u8 | k u8 | cellBits u8 |
//	  baseSeed u64 | routingSeed u64 | spaceRatio f64 | bitsPerKey f64 |
//	  threshold f64 | kind u8 | backend u8 | reserved u8×2 | shardCount u32 |
//	  reserved u32 | headerCRC u32 (CRC32C of the 60 bytes above)
//
// A decoder rejects a header that sets a flag bit this package does not
// define or a non-zero reserved byte.
//
// The backend byte names the filter family whose wire format fills the
// frames (a filtercore.Kind; 0 is HABF). A loader that does not
// recognize the byte must refuse to decode the frames rather than
// misparse them.
//
//	frames (shardCount, in shard order):
//	  epoch u64 | payloadLen u64 | frameCRC u32 (CRC32C) | padLen u32 |
//	  padLen zero bytes | payload
//
// frameCRC covers the whole frame except the CRC field itself: epoch,
// payloadLen, padLen, the pad bytes and the payload, in file order, so
// no frame byte is an integrity blind spot. Version 2 is the only
// version read; version-1 containers, whose frame CRC covered only the
// payload, are rejected.
//
// The routingSeed field records the seed of the routing hash. A sharded
// set routes by hashes.Base, so its containers record hashes.BaseSeed,
// and shard.Restore refuses any other value.
//
//	tuning frame (optional, only when the flagTuning header bit is
//	set): one more frame in the same envelope whose payload is the
//	backend's canonical tuning string ("k=v,k=v", sorted knob names) in
//	UTF-8 — the knob set the filters were built with. It is written only
//	when the tuning differs from the backend's defaults, so default-tuned
//	containers stay byte-identical to pre-tuning files; a restore parses
//	it against the backend's schema and fails loudly on unknown knobs,
//	out-of-bounds values or a non-canonical rendering.
//	keys frames (only when the flagKeys header bit is set): shardCount
//	more frames, in shard order, after the tuning frame. Each holds the
//	keys its shard's filter is rebuilt from, in arena layout:
//	  positives u64 | negatives u64 | baseline u64 |
//	  (positives+negatives+1) × offset u32 | key bytes |
//	  negatives × cost f64
//	— positive keys first, then negative keys, key i spanning key
//	bytes [offset i, offset i+1). baseline is how many of the positives
//	the shard's filter was built from; the rest were added since. The
//	writer aligns the cost array to 8 bytes in the file. A container
//	with keys frames is "full"; one without is "filter-only".
//	pending-keys frame (optional, only when the flagPendingKeys header
//	bit is set, and only in filter-only containers): one more frame,
//	last, whose payload is
//	  count u64 | count × (keyLen u32 | key bytes)
//	— Adds a static backend acked but no shard filter represents yet,
//	so a filter-only load answers them true. Files without the flag are
//	byte-identical to pre-flag containers.
//	footer:
//	  offset table: frameCount × u64 (file offset of each frame header,
//	  tuning, keys and pending frames included) | indexOff u64 |
//	  footerCRC u32 (CRC32C of table + indexOff) | tail magic u32 "PNSH"
//
// The per-frame pad exists for zero-copy loads: the writer shifts each
// payload so the word arrays inside it land 8-byte aligned in the file
// (Frame.Align names the payload offset that must align), letting the
// decoder alias the mapped buffer instead of copying it. The footer makes
// the container seekable from the tail — a reader can locate every frame
// with three fixed-size reads — and doubles as a truncation check: a file
// cut anywhere loses the tail magic.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/habf"
)

const (
	// Version is the container format version, the only one read.
	Version = 2

	magic     = uint32(0x504e5348) // "HSNP" little-endian
	tailMagic = uint32(0x48534e50) // "PNSH" little-endian

	headerSize   = 64
	frameHdrSize = 24
	footerSize   = 16 // indexOff + footerCRC + tail magic
	keysHdrSize  = 24 // positives, negatives, baseline
)

// Kind discriminates what a container holds, so a file of one kind fed
// to another kind's loader fails loudly at decode instead of producing
// a structure that routes wrong (e.g. an LSM filter-block container
// restored as a sharded set would answer false negatives).
const (
	// KindShardedSet is a sharded filter checkpoint (one frame per shard).
	KindShardedSet uint8 = 1
	// KindFilterBlocks is an LSM filter-block checkpoint (one frame per run).
	KindFilterBlocks uint8 = 2
)

// Meta flags (header byte 5).
const (
	flagFast = 1 << iota
	flagDisableGamma
	flagDisableOverlapRanking
	flagDisableCostOrdering
	// flagPendingKeys marks a filter-only container carrying one extra
	// frame, last: keys acked by Add that no shard filter represents.
	// Containers without the flag are byte-identical to pre-flag files.
	flagPendingKeys
	// flagTuning marks a container carrying a tuning frame right after
	// the shard frames: the backend's canonical non-default knob string.
	// Default-tuned containers never set it.
	flagTuning
	// flagKeys marks a full container: one keys frame per shard follows
	// the shard frames (and the tuning frame, when present).
	flagKeys

	// knownFlags is every bit this package defines; a header setting any
	// other bit was not written by it and is rejected.
	knownFlags = flagKeys<<1 - 1
)

// maxTuningLen bounds the tuning frame's payload; canonical knob
// strings are tens of bytes, so anything larger is hostile input.
const maxTuningLen = 4096

// castagnoli is the CRC32C polynomial table, the checksum of choice for
// storage formats (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Meta carries the set-level configuration a restore needs beyond the
// per-shard filter payloads: how keys route to shards and how shards that
// were empty at save time should build their first filter.
type Meta struct {
	Kind uint8 // container content type (Kind* constants)
	// Backend is the filtercore.Kind of the filter family framed inside
	// (0 = HABF).
	Backend               uint8
	BaseSeed              int64  // params seed the per-shard seeds derive from
	RouteSeed             uint64 // seed of the shard-routing fingerprint
	K                     int    // per-key hash budget of the shard template
	CellBits              uint   // HashExpressor cell width of the template
	Fast                  bool   // f-HABF shards
	DisableGamma          bool   // ablation switches of the template
	DisableOverlapRanking bool
	DisableCostOrdering   bool
	SpaceRatio            float64 // Δ split of the template
	BitsPerKey            float64 // budget for shards built after restore
	Threshold             float64 // rebuild threshold (negative = disabled)
	// HasKeys declares one keys frame per shard (the flagKeys header
	// bit); HasPending declares a pending-keys frame (flagPendingKeys).
	// A streaming Writer must know both before the header goes out;
	// Snapshot.WriteTo derives them from len(Keys) and len(Pending).
	HasKeys    bool
	HasPending bool
	// Tuning is the backend's canonical knob string ("k=v,k=v", sorted
	// names). Empty means "all defaults" and writes no tuning frame, so
	// default-tuned containers are byte-identical to pre-tuning files;
	// non-empty sets the flagTuning header bit and rides its own
	// checksummed frame right after the shard frames.
	Tuning string
}

// Frame is one shard's checkpoint: the filter's MarshalBinary payload
// (empty for a shard that had no filter) and the shard's mutation epoch
// at marshal time.
type Frame struct {
	Epoch   uint64
	Payload []byte
	// Align is the offset within Payload that the writer places 8-byte
	// aligned in the container (habf.WireAlignOffset of the filter's k).
	// It is not stored; decoded frames leave it zero.
	Align int
}

// Keys is one shard's key lists, the content of its keys frame:
// everything a rebuild of the shard's filter reads.
type Keys struct {
	Positives [][]byte
	Negatives []habf.WeightedKey
	// Baseline is how many of Positives the shard's filter was built
	// from; Positives[Baseline:] were added since.
	Baseline int
}

// Snapshot is a decoded (or to-be-written) container.
type Snapshot struct {
	Meta   Meta
	Frames []Frame
	// Keys holds one entry per frame in a full container and is nil in a
	// filter-only one.
	Keys []Keys
	// Pending holds keys a filter-only container's frames do not
	// represent: Adds a static backend acked before its next rebuild.
	// Empty for most containers; when present it rides an extra frame
	// flagged in the header.
	Pending [][]byte
}

// Writer streams a container one frame at a time, so a multi-GB
// snapshot never has to be materialized in memory: the caller marshals
// one shard, hands the frame over, and releases it before the next.
// Usage: NewWriter (writes the header), shardCount × WriteFrame, then
// WriteTuning, shardCount × WriteKeys and WritePending as the header
// promised, and Close (writes the footer).
type Writer struct {
	w       io.Writer
	written int64
	shards  int
	offsets []uint64
	closed  bool
	// What the header promised beyond the shard frames.
	tuning, keys, pending bool
}

// NewWriter writes the container header and returns a Writer expecting
// exactly shardCount frames.
func NewWriter(w io.Writer, meta Meta, shardCount int) (*Writer, error) {
	if shardCount == 0 {
		return nil, errors.New("snapshot: no frames")
	}
	if meta.Kind != KindShardedSet && meta.Kind != KindFilterBlocks {
		return nil, fmt.Errorf("snapshot: unknown container kind %d", meta.Kind)
	}
	if len(meta.Tuning) > maxTuningLen {
		return nil, fmt.Errorf("snapshot: tuning string %d bytes long (max %d)", len(meta.Tuning), maxTuningLen)
	}
	if meta.HasKeys && meta.HasPending {
		return nil, errors.New("snapshot: a full container carries no pending-keys frame")
	}
	sw := &Writer{w: w, shards: shardCount, tuning: meta.Tuning != "",
		keys: meta.HasKeys, pending: meta.HasPending,
		offsets: make([]uint64, 0, shardCount)}

	var head [headerSize]byte
	binary.LittleEndian.PutUint32(head[0:4], magic)
	head[4] = Version
	var flags byte
	if meta.Fast {
		flags |= flagFast
	}
	if meta.DisableGamma {
		flags |= flagDisableGamma
	}
	if meta.DisableOverlapRanking {
		flags |= flagDisableOverlapRanking
	}
	if meta.DisableCostOrdering {
		flags |= flagDisableCostOrdering
	}
	if meta.HasPending {
		flags |= flagPendingKeys
	}
	if meta.Tuning != "" {
		flags |= flagTuning
	}
	if meta.HasKeys {
		flags |= flagKeys
	}
	head[5] = flags
	head[6] = uint8(meta.K)
	head[7] = uint8(meta.CellBits)
	binary.LittleEndian.PutUint64(head[8:16], uint64(meta.BaseSeed))
	binary.LittleEndian.PutUint64(head[16:24], meta.RouteSeed)
	putFloat(head[24:32], meta.SpaceRatio)
	putFloat(head[32:40], meta.BitsPerKey)
	putFloat(head[40:48], meta.Threshold)
	head[48] = meta.Kind
	head[49] = meta.Backend
	// head[50:52] and head[56:60] reserved, zero, CRC-covered.
	binary.LittleEndian.PutUint32(head[52:56], uint32(shardCount))
	binary.LittleEndian.PutUint32(head[60:64], crc32.Checksum(head[:60], castagnoli))
	if err := sw.emit(head[:]); err != nil {
		return nil, err
	}
	return sw, nil
}

func (sw *Writer) emit(b []byte) error {
	n, err := sw.w.Write(b)
	sw.written += int64(n)
	return err
}

// Frame indexes in file order: shard frames [0, shards), the tuning
// frame, keys frames [keysStart, keysStart+shards), the pending frame.
func (sw *Writer) keysStart() int { return sw.shards + b2i(sw.tuning) }
func (sw *Writer) frameCount() int {
	return sw.keysStart() + sw.shards*b2i(sw.keys) + b2i(sw.pending)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// WriteFrame appends one shard's frame. The payload is not retained.
func (sw *Writer) WriteFrame(fr Frame) error {
	if len(sw.offsets) >= sw.shards {
		return fmt.Errorf("snapshot: more than %d frames written", sw.shards)
	}
	return sw.writeFrame(fr)
}

// WriteTuning appends the tuning frame after the shard frames. It must
// be called exactly once, and only when the header promised it
// (Meta.Tuning non-empty), so the flag bit and the footer table stay in
// agreement. The string must match what NewWriter saw.
func (sw *Writer) WriteTuning(tuning string) error {
	if !sw.tuning {
		return errors.New("snapshot: tuning frame not declared in header")
	}
	if len(sw.offsets) != sw.shards {
		return fmt.Errorf("snapshot: tuning frame must be frame %d, not %d", sw.shards, len(sw.offsets))
	}
	if tuning == "" || len(tuning) > maxTuningLen {
		return fmt.Errorf("snapshot: tuning frame payload %d bytes (want 1..%d)", len(tuning), maxTuningLen)
	}
	return sw.writeFrame(Frame{Payload: []byte(tuning)})
}

// WriteKeys appends the next shard's keys frame, after the shard frames
// and the tuning frame. It must be called once per shard, in shard
// order, and only when the header promised keys frames (Meta.HasKeys).
// A shard whose key bytes exceed 4 GiB cannot be framed.
func (sw *Writer) WriteKeys(k Keys) error {
	if !sw.keys {
		return errors.New("snapshot: keys frames not declared in header")
	}
	if n, lo := len(sw.offsets), sw.keysStart(); n < lo || n >= lo+sw.shards {
		return fmt.Errorf("snapshot: keys frame out of place at frame %d", n)
	}
	payload, costs, err := encodeKeys(k)
	if err != nil {
		return err
	}
	return sw.writeFrame(Frame{Payload: payload, Align: costs})
}

// WritePending appends the pending-keys frame, last. It must be called
// exactly once, and only when the header promised it (Meta.HasPending),
// so the flag bit and the footer table stay in agreement.
func (sw *Writer) WritePending(keys [][]byte) error {
	if !sw.pending {
		return errors.New("snapshot: pending frame not declared in header")
	}
	if n := len(sw.offsets); n != sw.frameCount()-1 {
		return fmt.Errorf("snapshot: pending frame out of place at frame %d", n)
	}
	return sw.writeFrame(Frame{Payload: encodePendingKeys(keys)})
}

func (sw *Writer) writeFrame(fr Frame) error {
	sw.offsets = append(sw.offsets, uint64(sw.written))
	// Place the frame so Payload[Align] lands on an 8-byte boundary.
	payloadOff := sw.written + frameHdrSize
	padLen := int((8 - (payloadOff+int64(fr.Align))%8) % 8)
	var hdr [frameHdrSize]byte
	var pad [8]byte
	binary.LittleEndian.PutUint64(hdr[0:8], fr.Epoch)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(fr.Payload)))
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(padLen))
	// Frame CRC: everything in the frame except the CRC field itself, in
	// file order, so no frame byte is an integrity blind spot.
	crc := crc32.Update(0, castagnoli, hdr[0:16])
	crc = crc32.Update(crc, castagnoli, hdr[20:24])
	crc = crc32.Update(crc, castagnoli, pad[:padLen])
	crc = crc32.Update(crc, castagnoli, fr.Payload)
	binary.LittleEndian.PutUint32(hdr[16:20], crc)
	if err := sw.emit(hdr[:]); err != nil {
		return err
	}
	if err := sw.emit(pad[:padLen]); err != nil {
		return err
	}
	return sw.emit(fr.Payload)
}

// Close writes the footer (offset table, CRC, tail magic). It fails if
// fewer frames were written than the header promised.
func (sw *Writer) Close() error {
	if sw.closed {
		return errors.New("snapshot: writer already closed")
	}
	if want := sw.frameCount(); len(sw.offsets) != want {
		return fmt.Errorf("snapshot: wrote %d of %d frames", len(sw.offsets), want)
	}
	sw.closed = true
	indexOff := uint64(sw.written)
	table := make([]byte, len(sw.offsets)*8+8)
	for i, off := range sw.offsets {
		binary.LittleEndian.PutUint64(table[i*8:], off)
	}
	binary.LittleEndian.PutUint64(table[len(sw.offsets)*8:], indexOff)
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[0:4], crc32.Checksum(table, castagnoli))
	binary.LittleEndian.PutUint32(tail[4:8], tailMagic)
	if err := sw.emit(table); err != nil {
		return err
	}
	return sw.emit(tail[:])
}

// Written returns the bytes written so far.
func (sw *Writer) Written() int64 { return sw.written }

// WriteTo writes the container. It implements io.WriterTo. Prefer the
// streaming Writer when frames are produced one at a time; WriteTo is
// the convenience form for an already-materialized Snapshot and emits
// identical bytes.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	meta := s.Meta
	meta.HasKeys = len(s.Keys) > 0
	meta.HasPending = len(s.Pending) > 0
	if meta.HasKeys && len(s.Keys) != len(s.Frames) {
		return 0, fmt.Errorf("snapshot: %d keys entries for %d frames", len(s.Keys), len(s.Frames))
	}
	sw, err := NewWriter(w, meta, len(s.Frames))
	if err != nil {
		return 0, err
	}
	for _, fr := range s.Frames {
		if err := sw.WriteFrame(fr); err != nil {
			return sw.Written(), err
		}
	}
	if meta.Tuning != "" {
		if err := sw.WriteTuning(meta.Tuning); err != nil {
			return sw.Written(), err
		}
	}
	for _, k := range s.Keys {
		if err := sw.WriteKeys(k); err != nil {
			return sw.Written(), err
		}
	}
	if meta.HasPending {
		if err := sw.WritePending(s.Pending); err != nil {
			return sw.Written(), err
		}
	}
	if err := sw.Close(); err != nil {
		return sw.Written(), err
	}
	return sw.Written(), nil
}

// MarshalBinary encodes the container into one byte slice.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal decodes a container. Frame payloads and keys alias data
// (zero-copy): the caller must keep data alive and unmodified while any
// structure decoded from them is in use. Every length is validated
// against len(data) before use and every checksum is verified, so
// hostile input is rejected with an error — never a panic or an
// unbounded allocation.
func Unmarshal(data []byte) (*Snapshot, error) {
	if len(data) < headerSize+footerSize {
		return nil, errors.New("snapshot: truncated container")
	}
	if binary.LittleEndian.Uint32(data[0:4]) != magic {
		return nil, errors.New("snapshot: bad magic")
	}
	if version := data[4]; version != Version {
		return nil, fmt.Errorf("snapshot: unsupported version %d (want %d)", version, Version)
	}
	if got, want := crc32.Checksum(data[:60], castagnoli), binary.LittleEndian.Uint32(data[60:64]); got != want {
		return nil, fmt.Errorf("snapshot: header CRC mismatch (%08x != %08x)", got, want)
	}
	kind := data[48]
	if kind != KindShardedSet && kind != KindFilterBlocks {
		return nil, fmt.Errorf("snapshot: unknown container kind %d", kind)
	}
	flags := data[5]
	if flags&^knownFlags != 0 {
		return nil, fmt.Errorf("snapshot: unknown header flags %#02x", flags&^knownFlags)
	}
	if binary.LittleEndian.Uint16(data[50:52]) != 0 || binary.LittleEndian.Uint32(data[56:60]) != 0 {
		return nil, errors.New("snapshot: reserved header bytes are not zero")
	}
	s := &Snapshot{Meta: Meta{
		Kind:                  kind,
		Backend:               data[49],
		K:                     int(data[6]),
		CellBits:              uint(data[7]),
		Fast:                  flags&flagFast != 0,
		DisableGamma:          flags&flagDisableGamma != 0,
		DisableOverlapRanking: flags&flagDisableOverlapRanking != 0,
		DisableCostOrdering:   flags&flagDisableCostOrdering != 0,
		BaseSeed:              int64(binary.LittleEndian.Uint64(data[8:16])),
		RouteSeed:             binary.LittleEndian.Uint64(data[16:24]),
		SpaceRatio:            getFloat(data[24:32]),
		BitsPerKey:            getFloat(data[32:40]),
		Threshold:             getFloat(data[40:48]),
		HasKeys:               flags&flagKeys != 0,
		HasPending:            flags&flagPendingKeys != 0,
	}}
	if s.Meta.HasKeys && s.Meta.HasPending {
		return nil, errors.New("snapshot: full container with a pending-keys frame")
	}

	shardCount := binary.LittleEndian.Uint32(data[52:56])
	// Each frame costs at least a header and each table entry 8 bytes, so
	// the byte length bounds the plausible shard count — reject before
	// allocating the frames slice.
	if shardCount == 0 || uint64(shardCount) > uint64(len(data))/frameHdrSize {
		return nil, fmt.Errorf("snapshot: implausible shard count %d for %d bytes", shardCount, len(data))
	}
	// The tuning, keys and pending-keys flags add frames (and table
	// entries) beyond the shard frames; everything below walks
	// frameCount, while shardCount keeps meaning what the restore layer
	// checks (power-of-two shard topology).
	layout := Writer{shards: int(shardCount), tuning: flags&flagTuning != 0,
		keys: s.Meta.HasKeys, pending: s.Meta.HasPending}
	frameCount := uint64(layout.frameCount())
	if frameCount > uint64(len(data))/frameHdrSize {
		return nil, fmt.Errorf("snapshot: implausible frame count %d for %d bytes", frameCount, len(data))
	}

	if binary.LittleEndian.Uint32(data[len(data)-4:]) != tailMagic {
		return nil, errors.New("snapshot: missing tail magic (truncated?)")
	}
	indexOff64 := binary.LittleEndian.Uint64(data[len(data)-16 : len(data)-8])
	tableLen := frameCount*8 + 8
	if indexOff64 < headerSize || indexOff64 > uint64(len(data)-footerSize) ||
		uint64(len(data)-footerSize)-indexOff64+8 != tableLen {
		return nil, errors.New("snapshot: footer offset table out of bounds")
	}
	indexOff := int(indexOff64)
	table := data[indexOff : len(data)-8]
	if got, want := crc32.Checksum(table, castagnoli), binary.LittleEndian.Uint32(data[len(data)-8:len(data)-4]); got != want {
		return nil, fmt.Errorf("snapshot: footer CRC mismatch (%08x != %08x)", got, want)
	}

	s.Frames = make([]Frame, frameCount)
	prevEnd := uint64(headerSize)
	for i := range s.Frames {
		off := binary.LittleEndian.Uint64(table[i*8:])
		if off != prevEnd {
			return nil, fmt.Errorf("snapshot: frame %d offset %d does not follow previous frame (want %d)", i, off, prevEnd)
		}
		if off+frameHdrSize > indexOff64 {
			return nil, fmt.Errorf("snapshot: frame %d header out of bounds", i)
		}
		hdr := data[off : off+frameHdrSize]
		epoch := binary.LittleEndian.Uint64(hdr[0:8])
		payloadLen := binary.LittleEndian.Uint64(hdr[8:16])
		wantCRC := binary.LittleEndian.Uint32(hdr[16:20])
		padLen := binary.LittleEndian.Uint32(hdr[20:24])
		if padLen >= 8 {
			return nil, fmt.Errorf("snapshot: frame %d pad %d out of range", i, padLen)
		}
		start := off + frameHdrSize + uint64(padLen)
		if start > indexOff64 || payloadLen > indexOff64-start {
			return nil, fmt.Errorf("snapshot: frame %d payload out of bounds", i)
		}
		payload := data[start : start+payloadLen]
		got := crc32.Update(0, castagnoli, hdr[0:16])
		got = crc32.Update(got, castagnoli, hdr[20:24])
		got = crc32.Update(got, castagnoli, data[off+frameHdrSize:start])
		got = crc32.Update(got, castagnoli, payload)
		if got != wantCRC {
			return nil, fmt.Errorf("snapshot: frame %d CRC mismatch (%08x != %08x)", i, got, wantCRC)
		}
		s.Frames[i] = Frame{Epoch: epoch, Payload: payload}
		prevEnd = start + payloadLen
	}
	if prevEnd != indexOff64 {
		return nil, errors.New("snapshot: trailing bytes between frames and footer")
	}
	if layout.tuning {
		payload := s.Frames[shardCount].Payload
		// An empty payload with the flag set can never come from a Writer
		// (Meta.Tuning == "" writes no frame), so it is corruption.
		if len(payload) == 0 || len(payload) > maxTuningLen {
			return nil, fmt.Errorf("snapshot: tuning frame payload %d bytes (want 1..%d)", len(payload), maxTuningLen)
		}
		s.Meta.Tuning = string(payload)
	}
	if layout.keys {
		s.Keys = make([]Keys, shardCount)
		for i, fr := range s.Frames[layout.keysStart():][:shardCount] {
			k, err := decodeKeys(fr.Payload)
			if err != nil {
				return nil, fmt.Errorf("snapshot: keys frame %d: %w", i, err)
			}
			s.Keys[i] = k
		}
	}
	if layout.pending {
		pending, err := decodePendingKeys(s.Frames[frameCount-1].Payload)
		if err != nil {
			return nil, err
		}
		s.Pending = pending
	}
	s.Frames = s.Frames[:shardCount]
	return s, nil
}

// encodeKeys renders a keys frame payload in arena layout and returns
// it with the offset of its cost array, which the writer aligns.
func encodeKeys(k Keys) (payload []byte, costsOff int, err error) {
	if k.Baseline < 0 || k.Baseline > len(k.Positives) {
		return nil, 0, fmt.Errorf("snapshot: keys baseline %d outside [0,%d]", k.Baseline, len(k.Positives))
	}
	nkeys := len(k.Positives) + len(k.Negatives)
	keyBytes := 0
	for _, key := range k.Positives {
		keyBytes += len(key)
	}
	for _, wk := range k.Negatives {
		keyBytes += len(wk.Key)
	}
	if uint64(keyBytes) > math.MaxUint32 {
		return nil, 0, fmt.Errorf("snapshot: %d key bytes in one shard (max %d)", keyBytes, uint64(math.MaxUint32))
	}
	offsOff := keysHdrSize
	bytesOff := offsOff + 4*(nkeys+1)
	costsOff = bytesOff + keyBytes
	out := make([]byte, costsOff+8*len(k.Negatives))
	binary.LittleEndian.PutUint64(out[0:], uint64(len(k.Positives)))
	binary.LittleEndian.PutUint64(out[8:], uint64(len(k.Negatives)))
	binary.LittleEndian.PutUint64(out[16:], uint64(k.Baseline))
	off := 0
	put := func(i int, key []byte) {
		copy(out[bytesOff+off:], key)
		off += len(key)
		binary.LittleEndian.PutUint32(out[offsOff+4*(i+1):], uint32(off))
	}
	for i, key := range k.Positives {
		put(i, key)
	}
	for i, wk := range k.Negatives {
		put(len(k.Positives)+i, wk.Key)
		putFloat(out[costsOff+8*i:], wk.Cost)
	}
	return out, costsOff, nil
}

// decodeKeys parses a keys frame payload. The returned keys alias data,
// each capped at its own length so an append never writes into the
// next. Counts and offsets are bounded by the payload before the slices
// they size are allocated, and every cost must be finite and
// non-negative, as habf.New requires.
func decodeKeys(data []byte) (Keys, error) {
	if len(data) < keysHdrSize+4 { // the header and the leading zero offset
		return Keys{}, errors.New("truncated")
	}
	npos := binary.LittleEndian.Uint64(data[0:])
	nneg := binary.LittleEndian.Uint64(data[8:])
	baseline := binary.LittleEndian.Uint64(data[16:])
	// A positive costs at least its 4-byte offset, a negative its offset
	// and 8-byte cost.
	room := uint64(len(data) - keysHdrSize - 4)
	if npos > room/4 || nneg > room/12 || 4*npos+12*nneg > room {
		return Keys{}, fmt.Errorf("implausible key counts %d+%d for %d bytes", npos, nneg, len(data))
	}
	if baseline > npos {
		return Keys{}, fmt.Errorf("baseline %d past %d positives", baseline, npos)
	}
	nkeys := int(npos + nneg)
	bytesOff := keysHdrSize + 4*(nkeys+1)
	costsOff := len(data) - 8*int(nneg)
	offs := data[keysHdrSize:bytesOff]
	keyBytes := data[bytesOff:costsOff]
	if binary.LittleEndian.Uint32(offs) != 0 || uint64(len(keyBytes)) > math.MaxUint32 ||
		binary.LittleEndian.Uint32(offs[4*nkeys:]) != uint32(len(keyBytes)) {
		return Keys{}, errors.New("key offsets do not span the key bytes")
	}
	k := Keys{
		Positives: make([][]byte, npos),
		Negatives: make([]habf.WeightedKey, nneg),
		Baseline:  int(baseline),
	}
	lo := uint32(0)
	for i := 0; i < nkeys; i++ {
		hi := binary.LittleEndian.Uint32(offs[4*(i+1):])
		if hi < lo || hi > uint32(len(keyBytes)) {
			return Keys{}, fmt.Errorf("key %d offsets [%d,%d) out of order", i, lo, hi)
		}
		key := keyBytes[lo:hi:hi]
		if i < int(npos) {
			k.Positives[i] = key
		} else {
			j := i - int(npos)
			cost := getFloat(data[costsOff+8*j:])
			if !habf.ValidCost(cost) {
				return Keys{}, fmt.Errorf("negative %d has invalid cost %v", j, cost)
			}
			k.Negatives[j] = habf.WeightedKey{Key: key, Cost: cost}
		}
		lo = hi
	}
	return k, nil
}

// encodePendingKeys renders the pending-keys frame payload:
//
//	count u64 | count × (keyLen u32 | key bytes)
func encodePendingKeys(keys [][]byte) []byte {
	size := 8
	for _, k := range keys {
		size += 4 + len(k)
	}
	out := make([]byte, 8, size)
	binary.LittleEndian.PutUint64(out, uint64(len(keys)))
	var hdr [4]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(k)))
		out = append(out, hdr[:]...)
		out = append(out, k...)
	}
	return out
}

// decodePendingKeys parses a pending-keys payload. Returned keys alias
// data, like frame payloads. Every length is validated against the
// payload before any allocation it sizes.
func decodePendingKeys(data []byte) ([][]byte, error) {
	if len(data) < 8 {
		return nil, errors.New("snapshot: truncated pending-keys frame")
	}
	count := binary.LittleEndian.Uint64(data[0:8])
	// Each key costs at least its 4-byte length prefix.
	if count > uint64(len(data)-8)/4 {
		return nil, fmt.Errorf("snapshot: implausible pending-key count %d for %d bytes", count, len(data))
	}
	keys := make([][]byte, 0, count)
	pos := 8
	for i := uint64(0); i < count; i++ {
		if len(data)-pos < 4 {
			return nil, fmt.Errorf("snapshot: truncated pending key %d", i)
		}
		n := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
		pos += 4
		if n > len(data)-pos {
			return nil, fmt.Errorf("snapshot: pending key %d length %d out of bounds", i, n)
		}
		keys = append(keys, data[pos:pos+n])
		pos += n
	}
	if pos != len(data) {
		return nil, errors.New("snapshot: trailing bytes after pending keys")
	}
	return keys, nil
}

func putFloat(b []byte, f float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(f))
}

func getFloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
