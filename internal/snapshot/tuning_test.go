package snapshot_test

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/habf"
	"repro/internal/snapshot"
)

func testTunedSnapshot() *snapshot.Snapshot {
	s := testSnapshot()
	s.Meta.Tuning = "absorb=4096,width=9"
	return s
}

// TestTuningFrameRoundtrip pins the container-level tuning contract:
// a non-empty Meta.Tuning rides its own checksummed frame, survives
// marshal → unmarshal byte-for-byte, coexists with the pending-keys
// frame, and never leaks into the shard frame list.
func TestTuningFrameRoundtrip(t *testing.T) {
	s := testTunedSnapshot()
	s.Pending = [][]byte{[]byte("pend-a"), []byte("pend-b")}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := snapshot.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Meta.Tuning != s.Meta.Tuning {
		t.Fatalf("tuning round-trip: got %q, want %q", g.Meta.Tuning, s.Meta.Tuning)
	}
	if len(g.Frames) != len(s.Frames) {
		t.Fatalf("tuning frame leaked into the shard list: %d frames, want %d", len(g.Frames), len(s.Frames))
	}
	if len(g.Pending) != 2 {
		t.Fatalf("pending keys did not survive next to the tuning frame: %d", len(g.Pending))
	}
	// Re-serialization must be byte-identical (canonical encoding).
	// Unmarshal does not recover synthetic Align hints, so the identity
	// check uses align-0 frames — the tuning and pending frames
	// themselves always encode with Align 0.
	flat := &snapshot.Snapshot{Meta: s.Meta, Pending: s.Pending, Frames: []snapshot.Frame{
		{Epoch: 3, Payload: []byte("flat-frame")},
		{Epoch: 4, Payload: []byte("other-frame")},
	}}
	flatData, err := flat.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snapshot.Unmarshal(flatData)
	if err != nil {
		t.Fatal(err)
	}
	again, err := dec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, flatData) {
		t.Fatal("tuned container re-serialization is not byte-identical")
	}

	// Without a tuning string, the container must stay byte-identical to
	// the pre-tuning format — no flag, no frame.
	plain, err := testSnapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := testTunedSnapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(plain, tuned) {
		t.Fatal("tuning frame did not change the container")
	}
	p, err := snapshot.Unmarshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if p.Meta.Tuning != "" {
		t.Fatalf("untuned container decoded tuning %q", p.Meta.Tuning)
	}
}

// TestTuningFrameRejectsCorruption: bitrot inside the tuning frame,
// truncation through it, and an oversized tuning string must all fail
// loudly instead of silently restoring different knobs.
func TestTuningFrameRejectsCorruption(t *testing.T) {
	good, err := testTunedSnapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	payloadOff := bytes.Index(good, []byte("absorb="))
	if payloadOff < 0 {
		t.Fatal("tuning payload not found in container")
	}
	cases := map[string][]byte{
		"tuning payload bitrot": append([]byte(nil), good...),
		"truncated at tuning":   good[:payloadOff+4],
	}
	cases["tuning payload bitrot"][payloadOff] ^= 0x80
	// Flipping the flagTuning header bit (header byte 5) desyncs header
	// CRC and frame accounting; both must reject it.
	flagFlip := append([]byte(nil), good...)
	flagFlip[5] ^= 0x20
	cases["tuning flag bitrot"] = flagFlip
	for name, data := range cases {
		if _, err := snapshot.Unmarshal(data); err == nil {
			t.Errorf("%s: corrupt container accepted", name)
		}
	}

	huge := testSnapshot()
	huge.Meta.Tuning = strings.Repeat("x", 4097)
	if _, err := huge.MarshalBinary(); err == nil {
		t.Error("oversized tuning string accepted")
	}
}

// TestGoldenContainerWithTuning pins the tuned container format byte
// for byte, the tuning-frame sibling of TestGoldenContainer. A failure
// means the format changed and old tuned snapshots would stop loading.
func TestGoldenContainerWithTuning(t *testing.T) {
	s := &snapshot.Snapshot{
		Meta: snapshot.Meta{
			RouteSeed:  0xdeadbeefcafe,
			Template:   habf.Params{Seed: 1, K: 3, CellBits: 4, SpaceRatio: 0.25},
			BitsPerKey: 12,
			Threshold:  0.02,
			Tuning:     "width=9",
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
	const want = "48534e50022003040100000000000000fecaefbeadde0000000000000000d03f0000000000002840" +
		"7b14ae47e17a943f01000000020000000000000091726b6905000000000000000600000000000000" +
		"3d2d89e006000000000000000000676f6c64656e00000000000000000000000000000000836ee6a5" +
		"04000000000000000000000000000000070000000000000057068ef10000000077696474683d3940" +
		"00000000000000640000000000000080000000000000009f00000000000000104dce9d504e5348"
	if got != want {
		t.Errorf("golden tuned container drifted:\n got  %s\n want %s", got, want)
	}
	g, err := snapshot.Unmarshal(data)
	if err != nil {
		t.Fatalf("golden tuned container does not decode: %v", err)
	}
	if g.Meta.Tuning != "width=9" {
		t.Fatalf("golden tuned container decodes tuning %q", g.Meta.Tuning)
	}
}
