package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/habf"
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
		// Header bits and bytes the format does not define, with the
		// header CRC recomputed so only the new checks can refuse them.
		// Flag bit 6 marks keys frames this container does not have.
		"flag bit 6":       headerMut(good, func(b []byte) { b[5] |= 1 << 6 }),
		"flag bit 7":       headerMut(good, func(b []byte) { b[5] |= 1 << 7 }),
		"reserved byte 50": headerMut(good, func(b []byte) { b[50] = 1 }),
		"reserved byte 51": headerMut(good, func(b []byte) { b[51] = 0x80 }),
		"reserved byte 56": headerMut(good, func(b []byte) { b[56] = 1 }),
		"reserved byte 59": headerMut(good, func(b []byte) { b[59] = 0x80 }),
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

// headerMut copies a container, mutates its header and recomputes the
// header CRC.
func headerMut(good []byte, f func(b []byte)) []byte {
	b := append([]byte(nil), good...)
	f(b)
	binary.LittleEndian.PutUint32(b[60:64], crc32.Checksum(b[:60], crc32.MakeTable(crc32.Castagnoli)))
	return b
}

// keysSnapshot is testSnapshot as a full container: one keys frame per
// shard frame, including an empty one and an empty key.
func keysSnapshot() *snapshot.Snapshot {
	s := testSnapshot()
	s.Keys = []snapshot.Keys{
		{Positives: [][]byte{[]byte("a"), []byte("bc"), {}}, Baseline: 2,
			Negatives: []habf.WeightedKey{{Key: []byte("neg"), Cost: 2.5}, {Key: []byte("n2"), Cost: 0}}},
		{},
		{Positives: [][]byte{[]byte("only")}, Baseline: 1},
		{Negatives: []habf.WeightedKey{{Key: []byte("x"), Cost: 1}}},
	}
	return s
}

func TestKeysFrameRoundtrip(t *testing.T) {
	s := keysSnapshot()
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := snapshot.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Meta.HasKeys || len(g.Keys) != len(s.Keys) {
		t.Fatalf("keys frames did not round-trip: HasKeys=%v, %d entries", g.Meta.HasKeys, len(g.Keys))
	}
	for i, want := range s.Keys {
		got := g.Keys[i]
		if got.Baseline != want.Baseline || len(got.Positives) != len(want.Positives) || len(got.Negatives) != len(want.Negatives) {
			t.Fatalf("shard %d: got %+v, want %+v", i, got, want)
		}
		for j, key := range want.Positives {
			if !bytes.Equal(got.Positives[j], key) || cap(got.Positives[j]) != len(key) {
				t.Fatalf("shard %d positive %d = %q (cap %d), want %q", i, j, got.Positives[j], cap(got.Positives[j]), key)
			}
			if len(key) > 0 && offsetIn(data, got.Positives[j]) < 0 {
				t.Fatalf("shard %d positive %d was copied, not aliased", i, j)
			}
		}
		for j, wk := range want.Negatives {
			if !bytes.Equal(got.Negatives[j].Key, wk.Key) || got.Negatives[j].Cost != wk.Cost {
				t.Fatalf("shard %d negative %d = %+v, want %+v", i, j, got.Negatives[j], wk)
			}
		}
	}
	for i := range g.Frames {
		g.Frames[i].Align = s.Frames[i].Align // not stored
	}
	again, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("full container re-serialization is not byte-identical")
	}
	// Without keys the same snapshot writes the filter-only container.
	s.Keys = nil
	filterOnly, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := testSnapshot().MarshalBinary(); !bytes.Equal(filterOnly, want) {
		t.Fatal("filter-only container differs from one written without keys")
	}
}

// TestKeysFrameRejectsCorruption feeds keys frames that pass every
// container checksum but lie inside: each must be refused before any
// allocation it sizes.
func TestKeysFrameRejectsCorruption(t *testing.T) {
	good, err := keysSnapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Frame 4 is shard 0's keys frame: 3 positives, 2 negatives, key
	// offsets 0 1 3 3 6 8.
	cases := map[string]func(p []byte){
		"huge positives":    func(p []byte) { binary.LittleEndian.PutUint64(p[0:], 1<<62) },
		"huge negatives":    func(p []byte) { binary.LittleEndian.PutUint64(p[8:], 1<<40) },
		"counts past bytes": func(p []byte) { binary.LittleEndian.PutUint64(p[0:], 9) },
		"baseline past":     func(p []byte) { binary.LittleEndian.PutUint64(p[16:], 4) },
		"first offset":      func(p []byte) { binary.LittleEndian.PutUint32(p[24:], 1) },
		"offsets backwards": func(p []byte) { binary.LittleEndian.PutUint32(p[24+4*2:], 0) },
		"offset past bytes": func(p []byte) { binary.LittleEndian.PutUint32(p[24+4*1:], 1<<20) },
		"last offset short": func(p []byte) { binary.LittleEndian.PutUint32(p[24+4*5:], 7) },
		"nan cost":          func(p []byte) { binary.LittleEndian.PutUint64(p[len(p)-8:], math.Float64bits(math.NaN())) },
		"negative cost":     func(p []byte) { binary.LittleEndian.PutUint64(p[len(p)-16:], math.Float64bits(-1)) },
		"infinite cost":     func(p []byte) { binary.LittleEndian.PutUint64(p[len(p)-8:], math.Float64bits(math.Inf(1))) },
	}
	for name, mutate := range cases {
		if _, err := snapshot.Unmarshal(patchFrame(good, 4, mutate)); err == nil {
			t.Errorf("%s: hostile keys frame accepted", name)
		}
	}
	if _, err := snapshot.Unmarshal(patchFrame(good, 4, func([]byte) {})); err != nil {
		t.Fatalf("patching without a change broke the container: %v", err)
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
