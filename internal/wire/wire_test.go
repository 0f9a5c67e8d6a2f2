package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// encodeRequests renders a handshake plus the given frames, as a client
// would put them on the wire.
func encodeRequests(frames ...[]byte) []byte {
	out := append([]byte{}, Handshake[:]...)
	for _, f := range frames {
		out = append(out, f...)
	}
	return out
}

// TestRequestRoundTrip pins that every op's encoder is decoded back
// verbatim, including pipelined frames on one stream.
func TestRequestRoundTrip(t *testing.T) {
	key := []byte("some-key")
	batch := [][]byte{[]byte("a"), []byte("bb"), bytes.Repeat([]byte{0xee}, 300)}

	stream := encodeRequests(
		AppendContains(nil, 1, key),
		AppendContainsBatch(nil, 2, batch),
		AppendAdd(nil, 3, key),
		AppendPing(nil, 4),
	)
	d := NewDecoder(bytes.NewReader(stream))
	if err := d.ReadHandshake(); err != nil {
		t.Fatal(err)
	}

	var req Request
	if err := d.Next(&req); err != nil {
		t.Fatal(err)
	}
	if req.Op != OpContains || req.ID != 1 || !bytes.Equal(req.Key, key) {
		t.Fatalf("contains decoded as %+v", req)
	}
	if err := d.Next(&req); err != nil {
		t.Fatal(err)
	}
	if req.Op != OpContainsBatch || req.ID != 2 || len(req.Keys) != len(batch) {
		t.Fatalf("batch decoded as %+v", req)
	}
	for i, k := range batch {
		if !bytes.Equal(req.Keys[i], k) {
			t.Fatalf("batch key %d: got %q want %q", i, req.Keys[i], k)
		}
	}
	if err := d.Next(&req); err != nil {
		t.Fatal(err)
	}
	if req.Op != OpAdd || req.ID != 3 || !bytes.Equal(req.Key, key) {
		t.Fatalf("add decoded as %+v", req)
	}
	if err := d.Next(&req); err != nil {
		t.Fatal(err)
	}
	if req.Op != OpPing || req.ID != 4 {
		t.Fatalf("ping decoded as %+v", req)
	}
	if err := d.Next(&req); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestDecoderRejectsHostileFrames pins the protocol violations that must
// fail decode rather than allocate or mis-frame.
func TestDecoderRejectsHostileFrames(t *testing.T) {
	hugeLen := appendUvarint([]byte{byte(OpContains), 1}, uint64(MaxKeyLen)+1)
	overCountBatch := appendUvarint([]byte{byte(OpContainsBatch), 1}, uint64(MaxBatchKeys)+1)
	// A batch whose per-key lengths are each legal but whose total busts
	// the byte cap: 3 keys of MaxKeyLen.
	overBytes := appendUvarint([]byte{byte(OpContainsBatch), 1}, 3)
	chunk := bytes.Repeat([]byte{'x'}, MaxKeyLen)
	for i := 0; i < 3; i++ {
		overBytes = appendUvarint(overBytes, uint64(MaxKeyLen))
		overBytes = append(overBytes, chunk...)
	}
	cases := []struct {
		name   string
		stream []byte
		want   error
	}{
		{"bad-handshake", []byte("GET / HTTP/1.1\r\n"), ErrBadHandshake},
		{"truncated-handshake", Handshake[:2], io.ErrUnexpectedEOF},
		{"bad-op", encodeRequests([]byte{0x7f, 0x01}), ErrBadOp},
		{"retired-op-5", encodeRequests([]byte{5, 0x01}), ErrBadOp},
		{"empty-key", encodeRequests(append([]byte{byte(OpContains), 1}, 0)), ErrEmptyKey},
		{"empty-add-key", encodeRequests(append([]byte{byte(OpAdd), 1}, 0)), ErrEmptyKey},
		{"huge-key-len", encodeRequests(hugeLen), ErrKeyTooLong},
		{"empty-batch", encodeRequests(append([]byte{byte(OpContainsBatch), 1}, 0)), ErrEmptyBatch},
		{"huge-batch-count", encodeRequests(overCountBatch), ErrBatchTooBig},
		{"batch-bytes-overflow", encodeRequests(overBytes), ErrBatchTooBig},
		{"empty-batch-key", encodeRequests(append(appendUvarint([]byte{byte(OpContainsBatch), 1}, 2), 1, 'x', 0)), ErrEmptyKey},
		{"truncated-key", encodeRequests(append(appendUvarint([]byte{byte(OpContains), 1}, 8), 'x', 'y')), io.ErrUnexpectedEOF},
		{"truncated-id", encodeRequests([]byte{byte(OpContains)}), io.ErrUnexpectedEOF},
		{"overlong-varint", encodeRequests(append([]byte{byte(OpContains), 1}, bytes.Repeat([]byte{0xff}, 10)...)), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDecoder(bytes.NewReader(tc.stream))
			err := d.ReadHandshake()
			if err == nil {
				var req Request
				err = d.Next(&req)
			}
			if err == nil {
				t.Fatal("hostile stream decoded cleanly")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestDecoderScratchReuse pins the zero-alloc contract: after the first
// frames size the scratch, decoding allocates nothing.
func TestDecoderScratchReuse(t *testing.T) {
	key := bytes.Repeat([]byte{'k'}, 128)
	batch := make([][]byte, 64)
	for i := range batch {
		batch[i] = []byte(fmt.Sprintf("batch-key-%03d", i))
	}
	frame := encodeRequests(AppendContains(nil, 1, key), AppendContainsBatch(nil, 2, batch))

	r := bytes.NewReader(frame)
	d := NewDecoder(r)
	var req Request
	warm := func() {
		r.Reset(frame)
		if err := d.ReadHandshake(); err != nil {
			t.Fatal(err)
		}
		for {
			if err := d.Next(&req); err != nil {
				if err == io.EOF {
					return
				}
				t.Fatal(err)
			}
		}
	}
	warm() // size the scratch
	allocs := testing.AllocsPerRun(50, warm)
	if allocs > 0 {
		t.Fatalf("decode allocates %.1f times per stream, want 0", allocs)
	}
}

// TestResponseEncoders spot-checks the response frames a client parses,
// including the bit-packing of batch results.
func TestResponseEncoders(t *testing.T) {
	got := AppendContainsResp(nil, 7, true)
	want := append(appendUvarint([]byte{byte(OpContains)}, 7), StatusOK, '1')
	if !bytes.Equal(got, want) {
		t.Fatalf("contains resp % x, want % x", got, want)
	}

	presents := []bool{true, false, false, true, true, false, true, true, true} // 9 results
	got = AppendBatchResp(nil, 9, presents)
	want = append(appendUvarint([]byte{byte(OpContainsBatch)}, 9), StatusOK)
	want = appendUvarint(want, 9)
	want = append(want, 0b11011001, 0b00000001)
	if !bytes.Equal(got, want) {
		t.Fatalf("batch resp % x, want % x", got, want)
	}

	got = AppendErrorResp(nil, OpAdd, 3, "boom")
	want = append(appendUvarint([]byte{byte(OpAdd)}, 3), StatusError)
	want = appendUvarint(want, 4)
	want = append(want, "boom"...)
	if !bytes.Equal(got, want) {
		t.Fatalf("error resp % x, want % x", got, want)
	}
}

// TestBatchScratchDoesNotLeakAcrossFrames pins that a later, smaller
// batch never exposes keys from an earlier one: the decoder clears its
// header slots between frames.
func TestBatchScratchDoesNotLeakAcrossFrames(t *testing.T) {
	big := make([][]byte, 16)
	for i := range big {
		big[i] = []byte(fmt.Sprintf("big-%02d", i))
	}
	stream := encodeRequests(
		AppendContainsBatch(nil, 1, big),
		AppendContainsBatch(nil, 2, [][]byte{[]byte("small")}),
	)
	d := NewDecoder(bytes.NewReader(stream))
	if err := d.ReadHandshake(); err != nil {
		t.Fatal(err)
	}
	var req Request
	if err := d.Next(&req); err != nil {
		t.Fatal(err)
	}
	if err := d.Next(&req); err != nil {
		t.Fatal(err)
	}
	if len(req.Keys) != 1 || string(req.Keys[0]) != "small" {
		t.Fatalf("second batch decoded as %q", req.Keys)
	}
	// The retained scratch beyond the live batch must hold no references.
	tail := d.keys[len(req.Keys):cap(d.keys)]
	for i, k := range tail {
		if k != nil {
			t.Fatalf("scratch slot %d still references %q from the previous batch", i, k)
		}
	}
}

// BenchmarkDecoderBatch times decoding one OpContainsBatch frame of 256
// 20-byte keys, the shape of a batch read, plus encoding its response.
// ns/op is per frame.
func BenchmarkDecoderBatch(b *testing.B) {
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%016d", i))
	}
	frame := AppendContainsBatch(nil, 1, keys)
	presents := make([]bool, len(keys))
	for i := range presents {
		presents[i] = i%3 == 0
	}
	var src bytes.Reader
	br := bufio.NewReaderSize(&src, 1<<16)
	d := NewDecoder(br)
	var req Request
	var out []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Reset(frame)
		br.Reset(&src)
		if err := d.Next(&req); err != nil {
			b.Fatal(err)
		}
		out = AppendBatchResp(out[:0], req.ID, presents)
	}
}
