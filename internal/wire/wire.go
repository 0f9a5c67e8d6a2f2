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
// The decoder is written for the server's hot loop: it reads into
// reused scratch buffers and allocates nothing in steady state. Every
// length is bounds-checked before any allocation, so hostile frames are
// rejected for free.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
// decoder's scratch buffers and are valid only until the next Next
// call; Add handlers that retain the key must copy it.
type Request struct {
	Op Op
	ID uint64
	// Key holds the OpContains/OpAdd key.
	Key []byte
	// Keys holds the OpContainsBatch keys.
	Keys [][]byte
}

// Decoder reads request frames from a connection with zero allocations
// in steady state: key bytes land in a reused backing buffer and batch
// headers in a reused slice. Not safe for concurrent use.
type Decoder struct {
	br   *bufio.Reader
	buf  []byte
	keys [][]byte
	hs   [4]byte // handshake scratch; a local would escape through io.ReadFull
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

// uvarint reads one varint, mapping a mid-frame EOF to ErrUnexpectedEOF
// so a truncated frame is distinguishable from a clean close.
func (d *Decoder) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(d.br)
	if errors.Is(err, io.EOF) {
		return 0, io.ErrUnexpectedEOF
	}
	return v, err
}

// readKey reads one length-prefixed key into the scratch backing at
// offset used, returning the aliased slice and the new offset. When the
// backing must grow it is replaced rather than copied: keys already
// decoded keep aliasing the old array, which stays alive exactly as
// long as they do.
func (d *Decoder) readKey(used int) ([]byte, int, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, used, err
	}
	if n == 0 {
		return nil, used, ErrEmptyKey
	}
	if n > MaxKeyLen {
		return nil, used, fmt.Errorf("%w (%d bytes)", ErrKeyTooLong, n)
	}
	kl := int(n)
	if used+kl > len(d.buf) {
		grown := 2 * len(d.buf)
		if grown < kl {
			grown = kl
		}
		d.buf = make([]byte, grown)
		used = 0
	}
	key := d.buf[used : used+kl]
	if _, err := io.ReadFull(d.br, key); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, used, err
	}
	return key, used + kl, nil
}

// Next decodes the next request frame into req. It returns io.EOF on a
// clean close between frames, io.ErrUnexpectedEOF on a truncated frame,
// and a protocol error (ErrBadOp, ErrEmptyKey, ...) on a hostile one.
// req.Op and req.ID are populated as soon as they are read, so a caller
// answering with an error frame can echo what it got.
func (d *Decoder) Next(req *Request) error {
	req.Key, req.Keys = nil, nil
	// Drop the previous batch's key references before reuse; the scratch
	// backing is retained either way, but headers into replaced backings
	// must not pin them past their frame.
	for i := range d.keys {
		d.keys[i] = nil
	}

	op, err := d.br.ReadByte()
	if err != nil {
		return err // io.EOF between frames is the clean-close path
	}
	req.Op = Op(op)
	id, err := d.uvarint()
	if err != nil {
		return err
	}
	req.ID = id

	switch req.Op {
	case OpContains, OpAdd:
		key, _, err := d.readKey(0)
		if err != nil {
			return err
		}
		req.Key = key
	case OpContainsBatch:
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		if n == 0 {
			return ErrEmptyBatch
		}
		if n > MaxBatchKeys {
			return fmt.Errorf("%w (%d keys)", ErrBatchTooBig, n)
		}
		count := int(n)
		d.keys = d.keys[:0]
		used, total := 0, 0
		for i := 0; i < count; i++ {
			key, nextUsed, err := d.readKey(used)
			if err != nil {
				return err
			}
			if total += len(key); total > MaxBatchBytes {
				return fmt.Errorf("%w (%d+ bytes)", ErrBatchTooBig, total)
			}
			d.keys = append(d.keys, key)
			used = nextUsed
		}
		req.Keys = d.keys
	case OpPing:
	default:
		return fmt.Errorf("%w %d", ErrBadOp, op)
	}
	return nil
}

// appendUvarint appends v in varint encoding.
func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...)
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
	var b byte
	for i, p := range presents {
		if p {
			b |= 1 << (i % 8)
		}
		if i%8 == 7 {
			dst = append(dst, b)
			b = 0
		}
	}
	if len(presents)%8 != 0 {
		dst = append(dst, b)
	}
	return dst
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
