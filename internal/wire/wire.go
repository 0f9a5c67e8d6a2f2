// Package wire defines the length-prefixed binary protocol habfserved
// speaks on its raw TCP listener, beside HTTP. The HTTP+JSON single-key
// path costs tens of microseconds per op in request framing alone; this
// protocol exists to strip that tax so the filter — not the transport —
// is what a single-key caller pays for.
//
// A connection opens with a 4-byte client handshake ("HBF" + version).
// After that, both directions carry self-describing frames:
//
//	request:  op(1) id(uvarint) payload
//	response: op(1) id(uvarint) status(1) payload
//
// Request payloads:
//
//	OpContains, OpAdd:  keyLen(uvarint) key
//	OpContainsBatch:    count(uvarint) then count × (keyLen(uvarint) key)
//	OpPing:             empty
//
// Response payloads (status StatusOK):
//
//	OpContains:         present(1): '0' or '1'
//	OpContainsBatch:    count(uvarint) then ceil(count/8) bit-packed
//	                    presence bytes (LSB-first within each byte)
//	OpAdd, OpPing:      empty
//
// A StatusError response instead carries msgLen(uvarint) + message, and
// the server closes the connection after sending it: every error is a
// protocol violation (bad op, hostile length, empty key), not a
// recoverable per-request condition.
//
// Request ids are chosen by the client and echoed verbatim, so a client
// may pipeline many requests on one connection and match responses by
// id; the server answers in request order.
//
// The decoder is written for the server's hot loop. It parses each frame
// in place in its buffered reader's window: lengths are read off the
// buffered bytes, keys alias them, and one Discard consumes the frame.
// Only a frame that is not wholly buffered when its parse begins (it
// arrived in pieces, or is longer than the 64 KiB read buffer) is
// copied, into a scratch backing reused across frames, so the decoder
// allocates nothing in steady state. Every length is bounds-checked
// before any allocation, so hostile frames are rejected for free.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Handshake is the 4 bytes a client sends when a connection opens:
// 3 magic bytes and a protocol version. A server rejects anything else
// before reading a single frame, so a stray HTTP client (or line noise)
// can't be misparsed as requests.
var Handshake = [4]byte{'H', 'B', 'F', Version}

// Version is the protocol revision carried in the handshake.
const Version = 1

// Op identifies a request kind.
type Op byte

const (
	// OpContains asks whether one key is in the filter.
	OpContains Op = 1
	// OpContainsBatch asks about a batch of keys in one frame.
	OpContainsBatch Op = 2
	// OpAdd inserts one key.
	OpAdd Op = 3
	// OpPing is a liveness round-trip carrying no payload.
	OpPing Op = 4
)

// String names the op for error messages and metrics labels.
func (o Op) String() string {
	switch o {
	case OpContains:
		return "contains"
	case OpContainsBatch:
		return "contains_batch"
	case OpAdd:
		return "add"
	case OpPing:
		return "ping"
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Response status bytes.
const (
	StatusOK    = 0
	StatusError = 1
)

// Frame size ceilings. These are protocol constants, not tunables: both
// sides reject violations before allocating, and the HTTP layer shares
// MaxKeyLen as its body cap so the two request paths agree on what an
// oversized key is.
const (
	// MaxKeyLen bounds a single key.
	MaxKeyLen = 8 << 20
	// MaxBatchKeys bounds the key count of one OpContainsBatch frame
	// and of one HTTP /v1/contains_batch request.
	MaxBatchKeys = 1 << 16
	// MaxBatchBytes bounds the total key bytes of one OpContainsBatch
	// frame, matching the HTTP batch endpoint's body cap.
	MaxBatchBytes = 8 << 20
)

// Protocol violations. Each closes the connection that produced it.
var (
	ErrBadHandshake = errors.New("wire: bad handshake")
	ErrBadOp        = errors.New("wire: unknown op")
	ErrEmptyKey     = errors.New("wire: empty key")
	ErrKeyTooLong   = errors.New("wire: key exceeds MaxKeyLen")
	ErrBatchTooBig  = errors.New("wire: batch exceeds MaxBatchKeys keys or MaxBatchBytes bytes")
	ErrEmptyBatch   = errors.New("wire: empty batch")
)

// Request is one decoded request frame. Key and Keys alias the
// decoder's read buffer (or, for a frame that arrived in pieces, its
// scratch backing) and are valid only until the next Next call. That is
// safe on the server because its connection loop answers one request
// before it decodes the next, and Add clones the key it keeps; any
// other caller that retains a key must copy it.
type Request struct {
	Op Op
	ID uint64
	// Key holds the OpContains/OpAdd key.
	Key []byte
	// Keys holds the OpContainsBatch keys.
	Keys [][]byte
}

// errOverflow reports a varint longer than ten bytes or above 2^64-1.
var errOverflow = errors.New("wire: varint overflows a 64-bit integer")

// Decoder parses request frames in place from its buffered reader and
// allocates nothing in steady state. Not safe for concurrent use.
type Decoder struct {
	br *bufio.Reader
	// buf holds a frame the reader's window does not hold whole; keys
	// reuses its header slots across batches.
	buf  []byte
	keys [][]byte
	// off and total carry a batch parse across reads into buf: the
	// offset of its first unparsed key (0 when none is under way) and
	// the byte count of the keys parsed so far.
	off, total int
	hs         [4]byte // handshake scratch; a local would escape through io.ReadFull
}

// NewDecoder wraps r; if r is not already buffered it gains a
// connection-sized buffer.
func NewDecoder(r io.Reader) *Decoder {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	return &Decoder{br: br}
}

// ReadHandshake consumes and validates the 4-byte client handshake.
func (d *Decoder) ReadHandshake() error {
	if _, err := io.ReadFull(d.br, d.hs[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("wire: handshake: %w", err)
	}
	if d.hs != Handshake {
		return fmt.Errorf("%w: % x", ErrBadHandshake, d.hs[:])
	}
	return nil
}

// Buffered reports how many request bytes are already buffered — a
// server flushes its write side only when this hits zero, so pipelined
// requests share flushes.
func (d *Decoder) Buffered() int { return d.br.Buffered() }

// Next decodes the next request frame into req. It returns io.EOF on a
// clean close between frames, io.ErrUnexpectedEOF on a truncated frame,
// and a protocol error (ErrBadOp, ErrEmptyKey, ...) on a hostile one.
// req.Op and req.ID are populated as soon as they are parsed, so a
// caller answering with an error frame can echo what it got.
//
// A frame the reader already holds whole is parsed where it lies and
// its keys alias the reader's buffer; only a frame that straddles the
// end of the buffered bytes is copied, into a reused scratch backing.
func (d *Decoder) Next(req *Request) error {
	req.Key, req.Keys = nil, nil
	d.reset()
	if d.br.Buffered() == 0 {
		if _, err := d.br.Peek(1); err != nil {
			return err // io.EOF between frames is the clean-close path
		}
	}
	win, _ := d.br.Peek(d.br.Buffered())
	n, need, err := d.parse(req, win)
	if err != nil {
		return err
	}
	if n == 0 {
		return d.readOn(req, win, need)
	}
	d.br.Discard(n)
	return nil
}

// reset forgets any batch parse under way. It drops the key references
// too: the header slots are reused, but a slot still pointing into an
// old frame would pin that frame's bytes.
func (d *Decoder) reset() {
	clear(d.keys)
	d.keys, d.off, d.total = d.keys[:0], 0, 0
}

// readOn finishes a frame of which win holds only a prefix: it moves
// the prefix into the scratch backing and reads on into it until parse
// sees the whole frame. need is parse's lower bound on the frame's
// length, so each read asks only for bytes the frame must still have.
// When the backing grows it is replaced rather than copied over: keys
// already parsed keep aliasing the old array, which stays alive exactly
// as long as they do.
func (d *Decoder) readOn(req *Request, win []byte, need int) error {
	d.reset()
	d.buf = append(d.buf[:0], win...)
	d.br.Discard(len(win))
	for {
		have := len(d.buf)
		d.buf = slices.Grow(d.buf, need-have)[:need]
		if m, err := io.ReadFull(d.br, d.buf[have:]); err != nil {
			// The stream ended inside the frame. A protocol error in the
			// bytes that did arrive still wins, as it would have had
			// they arrived in one piece.
			d.buf = d.buf[:have+m]
			if _, _, perr := d.parse(req, d.buf); perr != nil {
				return perr
			}
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		n, next, err := d.parse(req, d.buf)
		if err != nil || n > 0 {
			return err
		}
		need = next
	}
}

// parse parses the frame at the start of p, which holds at least one
// byte. If p holds the whole frame it returns the frame's length n;
// otherwise n is 0 and need, a lower bound on the frame's length, is
// more than len(p). A batch whose keys have started to parse resumes at
// d.off, so reading a long frame on in pieces costs one pass.
func (d *Decoder) parse(req *Request, p []byte) (n, need int, err error) {
	req.Op = Op(p[0])
	id, off, err := uvarint(p, 1)
	if off == 0 {
		return 0, len(p) + 1, err
	}
	req.ID = id

	switch req.Op {
	case OpContains, OpAdd:
		key, end, err := parseKey(p, off)
		if err != nil || end > len(p) {
			return 0, end, err
		}
		req.Key = key
		return end, 0, nil
	case OpContainsBatch:
		count, off, err := uvarint(p, off)
		if off == 0 {
			return 0, len(p) + 1, err
		}
		if count == 0 {
			return 0, 0, ErrEmptyBatch
		}
		if count > MaxBatchKeys {
			return 0, 0, fmt.Errorf("%w (%d keys)", ErrBatchTooBig, count)
		}
		if d.off > 0 {
			off = d.off
		}
		for len(d.keys) < int(count) {
			key, end, err := parseKey(p, off)
			if err != nil {
				return 0, 0, err
			}
			if end > len(p) {
				// Every key still to come takes at least its length
				// byte; no more is certain, since an empty key is
				// malformed yet one byte long, and asking past a
				// complete frame would stall its answer.
				d.off = off
				return 0, end + int(count) - len(d.keys) - 1, nil
			}
			if d.total += len(key); d.total > MaxBatchBytes {
				return 0, 0, fmt.Errorf("%w (%d+ bytes)", ErrBatchTooBig, d.total)
			}
			d.keys = append(d.keys, key)
			off = end
		}
		req.Keys = d.keys
		return off, 0, nil
	case OpPing:
		return off, 0, nil
	}
	return 0, 0, fmt.Errorf("%w %d", ErrBadOp, byte(req.Op))
}

// uvarint parses the varint at p[off:] and returns it with the offset
// just past it, or with offset 0 if p ends inside it.
func uvarint(p []byte, off int) (uint64, int, error) {
	v, k := binary.Uvarint(p[off:])
	if k < 0 {
		return 0, 0, errOverflow
	}
	if k == 0 {
		return 0, 0, nil
	}
	return v, off + k, nil
}

// parseKey parses the length-prefixed key at p[off:] and returns it with
// the offset end just past it. An end beyond len(p) means p stops inside
// the key and is how long p must grow to hold it (or, inside its length,
// to hold one more byte).
func parseKey(p []byte, off int) (key []byte, end int, err error) {
	var n uint64
	if off < len(p) && p[off] < 0x80 { // the common one-byte length
		n, off = uint64(p[off]), off+1
	} else if n, off, err = uvarint(p, off); off == 0 {
		return nil, len(p) + 1, err
	}
	switch {
	case n == 0:
		return nil, 0, ErrEmptyKey
	case n > MaxKeyLen:
		return nil, 0, fmt.Errorf("%w (%d bytes)", ErrKeyTooLong, n)
	}
	end = off + int(n)
	if end > len(p) {
		return nil, end, nil
	}
	return p[off:end:end], end, nil
}

// appendUvarint appends v in varint encoding: one byte below 128,
// which is every id of a young connection and every short key's length.
func appendUvarint(dst []byte, v uint64) []byte {
	if v < 0x80 {
		return append(dst, byte(v))
	}
	return binary.AppendUvarint(dst, v)
}

// AppendContains appends an OpContains request frame.
func AppendContains(dst []byte, id uint64, key []byte) []byte {
	dst = append(dst, byte(OpContains))
	dst = appendUvarint(dst, id)
	dst = appendUvarint(dst, uint64(len(key)))
	return append(dst, key...)
}

// AppendAdd appends an OpAdd request frame.
func AppendAdd(dst []byte, id uint64, key []byte) []byte {
	dst = append(dst, byte(OpAdd))
	dst = appendUvarint(dst, id)
	dst = appendUvarint(dst, uint64(len(key)))
	return append(dst, key...)
}

// AppendContainsBatch appends an OpContainsBatch request frame.
func AppendContainsBatch(dst []byte, id uint64, keys [][]byte) []byte {
	dst = append(dst, byte(OpContainsBatch))
	dst = appendUvarint(dst, id)
	dst = appendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
	}
	return dst
}

// AppendPing appends an OpPing request frame.
func AppendPing(dst []byte, id uint64) []byte {
	dst = append(dst, byte(OpPing))
	return appendUvarint(dst, id)
}

// appendRespHeader appends the shared response prefix.
func appendRespHeader(dst []byte, op Op, id uint64, status byte) []byte {
	dst = append(dst, byte(op))
	dst = appendUvarint(dst, id)
	return append(dst, status)
}

// AppendContainsResp appends an OpContains success response.
func AppendContainsResp(dst []byte, id uint64, present bool) []byte {
	dst = appendRespHeader(dst, OpContains, id, StatusOK)
	if present {
		return append(dst, '1')
	}
	return append(dst, '0')
}

// AppendBatchResp appends an OpContainsBatch success response with the
// presence bits packed LSB-first.
func AppendBatchResp(dst []byte, id uint64, presents []bool) []byte {
	dst = appendRespHeader(dst, OpContainsBatch, id, StatusOK)
	dst = appendUvarint(dst, uint64(len(presents)))
	full := len(presents) &^ 7
	for i := 0; i < full; i += 8 {
		p := presents[i : i+8 : i+8]
		dst = append(dst, bit(p[0])|bit(p[1])<<1|bit(p[2])<<2|bit(p[3])<<3|
			bit(p[4])<<4|bit(p[5])<<5|bit(p[6])<<6|bit(p[7])<<7)
	}
	if full < len(presents) {
		var b byte
		for j, p := range presents[full:] {
			b |= bit(p) << j
		}
		dst = append(dst, b)
	}
	return dst
}

// bit is 1 for true and 0 for false; the compiler emits no branch.
func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// AppendOKResp appends a payload-free success response (OpAdd, OpPing).
func AppendOKResp(dst []byte, op Op, id uint64) []byte {
	return appendRespHeader(dst, op, id, StatusOK)
}

// AppendErrorResp appends an error response carrying msg.
func AppendErrorResp(dst []byte, op Op, id uint64, msg string) []byte {
	dst = appendRespHeader(dst, op, id, StatusError)
	dst = appendUvarint(dst, uint64(len(msg)))
	return append(dst, msg...)
}
