package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Client speaks the binary protocol over one TCP connection. Calls are
// synchronous (one request in flight); run one Client per goroutine for
// concurrency — connections are cheap and the protocol's whole point is
// that each round-trip is. Not safe for concurrent use.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	id   uint64

	// out holds the request being sent. Until the first send it starts
	// with the handshake: head is its length then, and 0 after.
	out      []byte
	head     int
	presents []bool
	errBuf   []byte
}

// Dial connects to a habfserved binary listener and queues the
// handshake; it is sent with the first request, so Dial itself costs
// no extra round-trip.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<15),
		out:  append([]byte(nil), Handshake[:]...),
		head: len(Handshake),
	}, nil
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// SetDeadline bounds the next request round-trips.
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// nextID returns a fresh request id.
func (c *Client) nextID() uint64 {
	c.id++
	return c.id
}

// send writes the request in c.out straight to the connection.
func (c *Client) send() error {
	c.head = 0
	_, err := c.conn.Write(c.out)
	return err
}

// readHeader reads one response header and checks it answers (op, id).
// A StatusError response is surfaced as an error after draining the
// message; the server closes the connection after sending one.
func (c *Client) readHeader(op Op, id uint64) error {
	gotOp, err := c.br.ReadByte()
	if err != nil {
		return fmt.Errorf("wire: read response: %w", err)
	}
	gotID, err := binary.ReadUvarint(c.br)
	if err != nil {
		return fmt.Errorf("wire: read response id: %w", err)
	}
	status, err := c.br.ReadByte()
	if err != nil {
		return fmt.Errorf("wire: read response status: %w", err)
	}
	if status == StatusError {
		n, err := binary.ReadUvarint(c.br)
		if err != nil || n > 1<<16 {
			return fmt.Errorf("wire: server error (unreadable message)")
		}
		if cap(c.errBuf) < int(n) {
			c.errBuf = make([]byte, n)
		}
		msg := c.errBuf[:n]
		if _, err := io.ReadFull(c.br, msg); err != nil {
			return fmt.Errorf("wire: server error (truncated message): %w", err)
		}
		return fmt.Errorf("wire: server error: %s", msg)
	}
	if Op(gotOp) != op || gotID != id {
		return fmt.Errorf("wire: response mismatch: got %v id %d, want %v id %d", Op(gotOp), gotID, op, id)
	}
	return nil
}

// Contains asks whether key is in the served filter.
func (c *Client) Contains(key []byte) (bool, error) {
	id := c.nextID()
	c.out = AppendContains(c.out[:c.head], id, key)
	if err := c.send(); err != nil {
		return false, err
	}
	if err := c.readHeader(OpContains, id); err != nil {
		return false, err
	}
	b, err := c.br.ReadByte()
	if err != nil {
		return false, fmt.Errorf("wire: read contains result: %w", err)
	}
	switch b {
	case '1':
		return true, nil
	case '0':
		return false, nil
	}
	return false, fmt.Errorf("wire: bad contains result %#x", b)
}

// ContainsBatch answers all keys in one frame. The returned slice is
// reused across calls; copy it to retain.
func (c *Client) ContainsBatch(keys [][]byte) ([]bool, error) {
	if len(keys) == 0 {
		return nil, errors.New("wire: empty batch")
	}
	id := c.nextID()
	c.out = AppendContainsBatch(c.out[:c.head], id, keys)
	if err := c.send(); err != nil {
		return nil, err
	}
	if err := c.readHeader(OpContainsBatch, id); err != nil {
		return nil, err
	}
	n, err := binary.ReadUvarint(c.br)
	if err != nil {
		return nil, fmt.Errorf("wire: read batch count: %w", err)
	}
	if n != uint64(len(keys)) || n > MaxBatchKeys {
		return nil, fmt.Errorf("wire: %d results for %d keys", n, len(keys))
	}
	// At most MaxBatchKeys/8 = 8 KiB of bits: they fit the read buffer,
	// so they are unpacked where they lie.
	bits, err := c.br.Peek((len(keys) + 7) / 8)
	if err != nil {
		return nil, fmt.Errorf("wire: read batch results: %w", err)
	}
	if cap(c.presents) < len(keys) {
		c.presents = make([]bool, len(keys))
	}
	p := c.presents[:len(keys)]
	for i := range p {
		p[i] = bits[i>>3]>>(i&7)&1 != 0
	}
	c.br.Discard(len(bits))
	c.presents = p
	return p, nil
}

// Add inserts key into the served filter; a nil error means the insert
// was acked durable-in-memory, same as HTTP /v1/add.
func (c *Client) Add(key []byte) error {
	id := c.nextID()
	c.out = AppendAdd(c.out[:c.head], id, key)
	if err := c.send(); err != nil {
		return err
	}
	return c.readHeader(OpAdd, id)
}

// Ping round-trips an empty frame — a liveness check that also forces
// the handshake through on a fresh connection.
func (c *Client) Ping() error {
	id := c.nextID()
	c.out = AppendPing(c.out[:c.head], id)
	if err := c.send(); err != nil {
		return err
	}
	return c.readHeader(OpPing, id)
}
