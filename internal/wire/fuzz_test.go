package wire

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/fuzzcorpus"
)

// fuzzWireSeeds builds the seed inputs FuzzWireDecode starts from: a
// valid pipelined stream plus the hostile shapes the decoder must
// reject (bad ops, hostile lengths, truncations, varint overflows). The
// same set is committed under testdata/fuzz/FuzzWireDecode (see
// TestWireSeedCorpus) so the CI fuzz smoke starts from real edge cases.
func fuzzWireSeeds() map[string][]byte {
	valid := encodeRequests(
		AppendContains(nil, 1, []byte("probe-key")),
		AppendContainsBatch(nil, 2, [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}),
		AppendAdd(nil, 3, []byte("fresh-key")),
		AppendPing(nil, 4),
	)
	seeds := map[string][]byte{
		"valid-pipeline": valid,
		"empty":          {},
		"handshake-only": Handshake[:],
		"http-not-wire":  []byte("POST /v1/contains HTTP/1.1\r\nHost: x\r\n\r\n"),
		"bad-version":    {'H', 'B', 'F', 99},
		"bad-op":         append(append([]byte{}, Handshake[:]...), 0x7f, 0x01),
		"empty-key":      append(append([]byte{}, Handshake[:]...), byte(OpContains), 1, 0),
		"truncated-key":  valid[:len(Handshake)+4],
		"half":           valid[:len(valid)/2],
	}
	// Key length claiming 2^64-1: must be rejected before any allocation.
	huge := append([]byte{}, Handshake[:]...)
	huge = append(huge, byte(OpContains), 1)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	seeds["huge-key-len"] = huge
	// Batch count at the cap with no key bytes behind it.
	count := append([]byte{}, Handshake[:]...)
	count = append(count, byte(OpContainsBatch), 1)
	count = appendUvarint(count, MaxBatchKeys)
	seeds["batch-count-no-payload"] = count
	// Varint with a continuation bit on every byte: overlong, must error.
	overlong := append([]byte{}, Handshake[:]...)
	overlong = append(overlong, byte(OpPing))
	overlong = append(overlong, bytes.Repeat([]byte{0xff}, 11)...)
	seeds["overlong-varint"] = overlong
	return seeds
}

// FuzzWireDecode hardens the request decoder against arbitrary network
// input: no panic, no runaway allocation, and every accepted frame must
// satisfy the documented bounds and re-encode to the bytes just read.
func FuzzWireDecode(f *testing.F) {
	seeds := fuzzWireSeeds()
	for _, name := range fuzzcorpus.Names(seeds) {
		f.Add(seeds[name])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(bytes.NewReader(data))
		if err := d.ReadHandshake(); err != nil {
			return
		}
		var req Request
		var reenc []byte
		for frames := 0; frames < 1024; frames++ {
			if err := d.Next(&req); err != nil {
				return
			}
			switch req.Op {
			case OpContains, OpAdd:
				if len(req.Key) == 0 || len(req.Key) > MaxKeyLen {
					t.Fatalf("accepted key of length %d", len(req.Key))
				}
				if req.Op == OpContains {
					reenc = AppendContains(reenc[:0], req.ID, req.Key)
				} else {
					reenc = AppendAdd(reenc[:0], req.ID, req.Key)
				}
			case OpContainsBatch:
				if len(req.Keys) == 0 || len(req.Keys) > MaxBatchKeys {
					t.Fatalf("accepted batch of %d keys", len(req.Keys))
				}
				total := 0
				for _, k := range req.Keys {
					if len(k) == 0 || len(k) > MaxKeyLen {
						t.Fatalf("accepted batch key of length %d", len(k))
					}
					total += len(k)
				}
				if total > MaxBatchBytes {
					t.Fatalf("accepted batch of %d bytes", total)
				}
				reenc = AppendContainsBatch(reenc[:0], req.ID, req.Keys)
			case OpPing:
				reenc = AppendPing(reenc[:0], req.ID)
			default:
				t.Fatalf("decoder returned unknown op %v", req.Op)
			}
			// An accepted frame re-encodes byte-identically — the decoder
			// and encoders agree on one canonical framing.
			rd := NewDecoder(bytes.NewReader(reenc))
			var again Request
			if err := rd.Next(&again); err != nil {
				t.Fatalf("re-encoded frame rejected: %v", err)
			}
		}
	})
}

// TestWireSeedCorpus keeps the committed seed corpus under
// testdata/fuzz/FuzzWireDecode in sync with fuzzWireSeeds. Run with
// UPDATE_FUZZ_CORPUS=1 to regenerate after changing the seed set.
func TestWireSeedCorpus(t *testing.T) {
	const dir = "testdata/fuzz/FuzzWireDecode"
	seeds := fuzzWireSeeds()
	if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
		if err := fuzzcorpus.WriteDir(dir, seeds); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d seeds)", dir, len(seeds))
	}
	committed, err := fuzzcorpus.ReadDir(dir)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_FUZZ_CORPUS=1 to generate)", err)
	}
	for _, name := range fuzzcorpus.Names(seeds) {
		got, ok := committed[name]
		if !ok {
			t.Errorf("seed %q not committed (run with UPDATE_FUZZ_CORPUS=1)", name)
			continue
		}
		if !bytes.Equal(got, seeds[name]) {
			t.Errorf("committed seed %q differs from generator", name)
		}
	}
	for _, name := range fuzzcorpus.Names(committed) {
		if _, ok := seeds[name]; !ok {
			t.Errorf("stale committed seed %q (run with UPDATE_FUZZ_CORPUS=1)", name)
		}
	}
	// Every seed must decode without panicking, whatever it decodes to.
	for _, name := range fuzzcorpus.Names(committed) {
		d := NewDecoder(bytes.NewReader(committed[name]))
		if err := d.ReadHandshake(); err != nil {
			continue
		}
		var req Request
		for d.Next(&req) == nil {
		}
	}
}
