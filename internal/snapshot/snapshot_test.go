package snapshot_test

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/snapshot"
)

// offsetIn returns p's byte offset inside data, or -1 if p does not
// alias data. (bytes.Index would find the first equal byte sequence,
// which is wrong for short payloads.)
func offsetIn(data, p []byte) int {
	if len(p) == 0 || len(data) == 0 {
		return -1
	}
	d := uintptr(unsafe.Pointer(&p[0])) - uintptr(unsafe.Pointer(&data[0]))
	if int(d) < 0 || int(d)+len(p) > len(data) {
		return -1
	}
	return int(d)
}

func testSnapshot() *snapshot.Snapshot {
	return &snapshot.Snapshot{
		Meta: snapshot.Meta{
			Kind:       snapshot.KindShardedSet,
			Backend:    2, // non-default backend byte must round-trip
			BaseSeed:   42,
			RouteSeed:  0x123456789abcdef0,
			K:          3,
			CellBits:   4,
			SpaceRatio: 0.25,
			BitsPerKey: 10,
			Threshold:  0.02,
		},
		Frames: []snapshot.Frame{
			{Epoch: 7, Payload: []byte("frame-zero-payload"), Align: 4},
			{Epoch: 0, Payload: nil}, // empty shard
			{Epoch: 9, Payload: bytes.Repeat([]byte{0xAB}, 40), Align: 0},
			{Epoch: 1, Payload: []byte{1}, Align: 1},
		},
	}
}

func TestContainerRoundtrip(t *testing.T) {
	s := testSnapshot()
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := snapshot.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Meta != s.Meta {
		t.Fatalf("meta mismatch:\n got  %+v\n want %+v", g.Meta, s.Meta)
	}
	if len(g.Frames) != len(s.Frames) {
		t.Fatalf("frame count %d != %d", len(g.Frames), len(s.Frames))
	}
	for i := range s.Frames {
		if g.Frames[i].Epoch != s.Frames[i].Epoch {
			t.Errorf("frame %d epoch %d != %d", i, g.Frames[i].Epoch, s.Frames[i].Epoch)
		}
		if !bytes.Equal(g.Frames[i].Payload, s.Frames[i].Payload) {
			t.Errorf("frame %d payload mismatch", i)
		}
	}
}

func TestContainerPayloadsAliasInput(t *testing.T) {
	data, err := testSnapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := snapshot.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	// Zero-copy contract: decoded payloads point into data, not copies.
	p := g.Frames[0].Payload
	if len(p) == 0 {
		t.Fatal("frame 0 empty")
	}
	if offsetIn(data, p) < 0 {
		t.Fatal("decoded payload does not alias the container buffer")
	}
}

func TestContainerAlignment(t *testing.T) {
	s := testSnapshot()
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := snapshot.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range s.Frames {
		if len(want.Payload) == 0 {
			continue
		}
		p := g.Frames[i].Payload
		fileOff := offsetIn(data, p)
		if fileOff < 0 {
			t.Fatalf("frame %d does not alias the container", i)
		}
		if (fileOff+want.Align)%8 != 0 {
			t.Errorf("frame %d: payload[%d] at file offset %d+%d not 8-aligned",
				i, want.Align, fileOff, want.Align)
		}
	}
}

func TestContainerRejectsCorruption(t *testing.T) {
	good, err := testSnapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	version1, err := hex.DecodeString(goldenVersion1)
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"empty":         {},
		"short":         good[:20],
		"no tail":       good[:len(good)-1],
		"half":          good[:len(good)/2],
		"bad magic":     mut(func(b []byte) { b[0] ^= 0xFF }),
		"bad version":   mut(func(b []byte) { b[4] = 99 }),
		"header bitrot": mut(func(b []byte) { b[17] ^= 0x01 }),
		"bad kind":      mut(func(b []byte) { b[48] = 99 }),
		"payload bitrot": mut(func(b []byte) {
			b[64+24+10] ^= 0x80 // inside frame 0's payload
		}),
		// The frame CRC covers the frame header and pad bytes too.
		"epoch bitrot":  mut(func(b []byte) { b[64+3] ^= 0x01 }),
		"pad bitrot":    mut(func(b []byte) { b[64+24] ^= 0x01 }), // frame 0 pad (Align 4 → 4 pad bytes)
		"footer bitrot": mut(func(b []byte) { b[len(b)-20] ^= 0x01 }),
		"shard count 0": mut(func(b []byte) {
			b[52], b[53], b[54], b[55] = 0, 0, 0, 0
			// headerCRC now wrong too; rejected either way
		}),
		"huge shard count": mut(func(b []byte) {
			b[52], b[53], b[54], b[55] = 0xFF, 0xFF, 0xFF, 0xFF
		}),
		"trailing": append(append([]byte(nil), good...), 0x00),
		// A well-formed version-1 container (payload-only frame CRCs): the
		// format is no longer read.
		"version 1": version1,
	}
	for name, data := range cases {
		if _, err := snapshot.Unmarshal(data); err == nil {
			t.Errorf("%s: corrupt container accepted", name)
		}
	}
}

// TestGoldenContainer pins the container wire format byte for byte. If
// this test fails, the format changed: that requires a version bump and
// a deliberate update of this fixture, or old snapshots stop loading.
func TestGoldenContainer(t *testing.T) {
	s := &snapshot.Snapshot{
		Meta: snapshot.Meta{
			Kind:       snapshot.KindShardedSet,
			BaseSeed:   1,
			RouteSeed:  0xdeadbeefcafe,
			K:          3,
			CellBits:   4,
			SpaceRatio: 0.25,
			BitsPerKey: 12,
			Threshold:  0.02,
		},
		Frames: []snapshot.Frame{
			{Epoch: 5, Payload: []byte("golden"), Align: 2},
			{Epoch: 0, Payload: nil},
		},
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(data)
	const want = "48534e50020003040100000000000000fecaefbeadde0000000000000000d03f0000000000002840" +
		"7b14ae47e17a943f0100000002000000000000009a4a8b4805000000000000000600000000000000" +
		"3d2d89e006000000000000000000676f6c64656e00000000000000000000000000000000836ee6a5" +
		"0400000000000000400000000000000064000000000000008000000000000000edd95e1f504e5348"
	if got != want {
		t.Errorf("golden container drifted:\n got  %s\n want %s", got, want)
	}
	if _, err := snapshot.Unmarshal(data); err != nil {
		t.Fatalf("golden container does not decode: %v", err)
	}
}

// goldenVersion1 is TestGoldenContainer's snapshot in the version-1
// format, whose frame CRCs covered only the payload.
const goldenVersion1 = "48534e50010003040100000000000000fecaefbeadde0000000000000000d03f0000000000002840" +
	"7b14ae47e17a943f010000000200000000000000635ab8ef05000000000000000600000000000000" +
	"2b216b4206000000000000000000676f6c64656e0000000000000000000000000000000000000000" +
	"0400000000000000400000000000000064000000000000008000000000000000edd95e1f504e5348"

// TestGoldenContainerVersion1 pins that a well-formed version-1
// container is refused for its version — named as such, so an operator
// holding an old snapshot knows to rebuild rather than suspect bitrot.
func TestGoldenContainerVersion1(t *testing.T) {
	data, err := hex.DecodeString(goldenVersion1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = snapshot.Unmarshal(data)
	if err == nil {
		t.Fatal("version-1 container accepted")
	}
	if !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("version-1 container refused for the wrong reason: %v", err)
	}
}
