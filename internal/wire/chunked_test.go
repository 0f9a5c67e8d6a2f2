package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/fuzzcorpus"
)

// decoded is one Next outcome, with the keys copied out of the decoder.
type decoded struct {
	Op   Op
	ID   uint64
	Keys []string // the OpContains/OpAdd key, or the batch's keys
	Err  string
}

// decodeStream decodes a handshake and up to 1024 frames from r and
// returns every outcome, the failing one last.
func decodeStream(r io.Reader) []decoded {
	d := NewDecoder(r)
	if err := d.ReadHandshake(); err != nil {
		return []decoded{{Err: err.Error()}}
	}
	var out []decoded
	var req Request
	for len(out) < 1024 {
		err := d.Next(&req)
		got := decoded{Op: req.Op, ID: req.ID}
		if err != nil {
			got.Err = err.Error()
			return append(out, got)
		}
		if req.Key != nil {
			got.Keys = []string{string(req.Key)}
		}
		for _, k := range req.Keys {
			got.Keys = append(got.Keys, string(k))
		}
		out = append(out, got)
	}
	return out
}

// chunkReader hands out its stream in pieces of 1 to 64 bytes whose
// sizes follow a xorshift sequence, so frames straddle the reader's
// window at varying offsets.
type chunkReader struct {
	data []byte
	x    uint32
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	c.x ^= c.x << 13
	c.x ^= c.x >> 17
	c.x ^= c.x << 5
	n := copy(p[:min(len(p), int(c.x%64)+1)], c.data)
	c.data = c.data[n:]
	return n, nil
}

// checkChunkedParity decodes stream whole and in pieces chosen by
// sched and fails if any decode differs from the whole one.
func checkChunkedParity(t *testing.T, sched byte, stream []byte) {
	t.Helper()
	want := decodeStream(bytes.NewReader(stream))
	readers := map[string]io.Reader{
		"16-byte window": bufio.NewReaderSize(bytes.NewReader(stream), 16),
		"one byte":       iotest.OneByteReader(bytes.NewReader(stream)),
		"chunks":         bufio.NewReaderSize(&chunkReader{data: stream, x: uint32(sched) | 1}, 16+int(sched)),
	}
	for name, r := range readers {
		if got := decodeStream(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s decode differs from whole decode:\n got  %+v\n want %+v", name, got, want)
		}
	}
}

// chunkedStreams are pipelined request streams whose frames straddle a
// small window: long keys, long batches, multi-byte varints, and each
// hostile shape the decoder rejects.
func chunkedStreams() map[string][]byte {
	batch := make([][]byte, 300)
	for i := range batch {
		batch[i] = bytes.Repeat([]byte{byte('a' + i%26)}, 1+i%40)
	}
	long := bytes.Repeat([]byte("0123456789"), 30)
	streams := map[string][]byte{
		"pipeline": encodeRequests(
			AppendContains(nil, 1, []byte("probe-key")),
			AppendContainsBatch(nil, 200, batch),
			AppendAdd(nil, 1<<20, long),
			AppendPing(nil, 4),
			AppendContainsBatch(nil, 5, [][]byte{long, []byte("x"), long}),
			AppendContains(nil, 6, []byte("k")),
		),
	}
	// A frame whose stream ends right after a bad key: the error must
	// win over the truncation however the frame arrived.
	bad := appendUvarint([]byte{byte(OpContainsBatch), 9}, 3)
	bad = append(appendUvarint(bad, uint64(len(long))), long...)
	streams["batch-empty-key-at-end"] = encodeRequests(append(bad, 0))
	for name, s := range fuzzWireSeeds() {
		streams["seed-"+name] = s
	}
	return streams
}

// TestDecoderChunkedParity pins that a frame that arrives in pieces
// decodes to exactly what the whole stream decodes to, requests and
// errors alike: through a 16-byte bufio window, one byte per read, and
// xorshift-sized chunks.
func TestDecoderChunkedParity(t *testing.T) {
	streams := chunkedStreams()
	for _, name := range fuzzcorpus.Names(streams) {
		t.Run(name, func(t *testing.T) {
			stream := streams[name]
			for _, cut := range []int{len(stream), len(stream) - 1, len(stream) / 2, len(stream) / 3} {
				for sched := 0; sched < 8; sched++ {
					checkChunkedParity(t, byte(sched*37), stream[:max(cut, 0)])
				}
			}
		})
	}
}

// TestBatchKeysStayIntact pins the Request contract on both decode
// paths: a batch's keys, whether they alias the read window or the
// scratch backing of a frame that arrived in pieces, hold their bytes
// until the next Next, however many keys were parsed after them.
func TestBatchKeysStayIntact(t *testing.T) {
	batch := make([][]byte, 500)
	for i := range batch {
		batch[i] = []byte(fmt.Sprintf("key-%04d-%s", i, bytes.Repeat([]byte{'z'}, i%50)))
	}
	stream := encodeRequests(
		AppendContainsBatch(nil, 1, batch),
		AppendContainsBatch(nil, 2, batch[:3]),
		AppendContains(nil, 3, batch[7]),
	)
	readers := map[string]io.Reader{
		"whole":          bytes.NewReader(stream),
		"16-byte window": bufio.NewReaderSize(bytes.NewReader(stream), 16),
		"one byte":       iotest.OneByteReader(bytes.NewReader(stream)),
	}
	for name, r := range readers {
		d := NewDecoder(r)
		if err := d.ReadHandshake(); err != nil {
			t.Fatal(err)
		}
		var req Request
		for _, want := range [][][]byte{batch, batch[:3], nil} {
			if err := d.Next(&req); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			d.Buffered() // as the server's loop does before it answers
			got := req.Keys
			if want == nil {
				got, want = [][]byte{req.Key}, batch[7:8]
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d keys, want %d", name, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: frame %d key %d reads %q, want %q", name, req.ID, i, got[i], want[i])
				}
			}
		}
	}
}

// fuzzChunkedSeeds are FuzzWireChunked's seed inputs: each chunked
// stream behind a one-byte chunk schedule.
func fuzzChunkedSeeds() map[string][]byte {
	streams := chunkedStreams()
	seeds := map[string][]byte{}
	for i, name := range fuzzcorpus.Names(streams) {
		seeds[name] = append([]byte{byte(i * 37)}, streams[name]...)
	}
	return seeds
}

// FuzzWireChunked checks that the decoder answers a stream the same
// whether it arrives whole or in pieces. The first input byte picks the
// chunk schedule and window size, the rest is the stream.
func FuzzWireChunked(f *testing.F) {
	seeds := fuzzChunkedSeeds()
	for _, name := range fuzzcorpus.Names(seeds) {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		checkChunkedParity(t, data[0], data[1:])
	})
}

// TestChunkedSeedCorpus keeps the committed seed corpus under
// testdata/fuzz/FuzzWireChunked in sync with fuzzChunkedSeeds. Run with
// UPDATE_FUZZ_CORPUS=1 to regenerate after changing the seed set.
func TestChunkedSeedCorpus(t *testing.T) {
	const dir = "testdata/fuzz/FuzzWireChunked"
	seeds := fuzzChunkedSeeds()
	if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
		if err := fuzzcorpus.WriteDir(dir, seeds); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := fuzzcorpus.ReadDir(dir)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_FUZZ_CORPUS=1 to generate)", err)
	}
	if !reflect.DeepEqual(committed, seeds) {
		t.Fatalf("committed seeds differ from fuzzChunkedSeeds (run with UPDATE_FUZZ_CORPUS=1)")
	}
}

// TestMalformedFrameAnsweredOnOpenStream pins that a complete but
// malformed batch frame gets its error while the writer keeps the
// connection open, so a client waiting for the answer is not left
// hanging. The frame's second key is empty, one byte long, after a
// first key that straddles the read window: a decoder that asks for
// more bytes than such a frame holds waits instead of answering.
func TestMalformedFrameAnsweredOnOpenStream(t *testing.T) {
	for name, first := range map[string]int{"key over the window": 70000, "key split across writes": 20} {
		t.Run(name, func(t *testing.T) {
			frame := AppendContainsBatch(nil, 1, [][]byte{bytes.Repeat([]byte{'k'}, first), {}, []byte("a")})
			client, server := net.Pipe()
			defer client.Close()
			defer server.Close()
			go func() {
				client.Write(Handshake[:])
				client.Write(frame[:len(frame)/2])
				client.Write(frame[len(frame)/2:])
			}()
			done := make(chan error, 1)
			go func() {
				d := NewDecoder(server)
				if err := d.ReadHandshake(); err != nil {
					done <- err
					return
				}
				var req Request
				done <- d.Next(&req)
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrEmptyKey) {
					t.Fatalf("Next: %v, want %v", err, ErrEmptyKey)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Next still waits for bytes past a complete frame")
			}
		})
	}
}
