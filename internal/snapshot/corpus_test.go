package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"testing"

	"repro/internal/fuzzcorpus"
	"repro/internal/habf"
	"repro/internal/shard"
	"repro/internal/snapshot"
)

// saveContainer writes set as a full (withKeys) or filter-only
// container.
func saveContainer(tb testing.TB, set *shard.Set, withKeys bool) []byte {
	var buf bytes.Buffer
	if err := set.WriteSnapshot(&buf, withKeys); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fixHeaderCRC recomputes a mutated header's CRC, so a seed reaches the
// check behind it instead of dying on the checksum.
func fixHeaderCRC(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[60:64], crc32.Checksum(b[:60], crc32.MakeTable(crc32.Castagnoli)))
	return b
}

// fuzzSnapshotSeeds builds the hostile container inputs
// FuzzUnmarshalSnapshot starts from; the same set is committed under
// testdata/fuzz/FuzzUnmarshalSnapshot so the CI fuzz smoke starts from
// real decoder edge cases. The valid-* seeds of one backend each are
// filter-only saves; valid-keys-container and the keys-* seeds are full
// ones.
func fuzzSnapshotSeeds(tb testing.TB) map[string][]byte {
	pos := make([][]byte, 300)
	neg := make([]habf.WeightedKey, 300)
	for i := range pos {
		pos[i] = []byte(fmt.Sprintf("fz-pos-%04d", i))
		neg[i] = habf.WeightedKey{Key: []byte(fmt.Sprintf("fz-neg-%04d", i)), Cost: float64(i%7 + 1)}
	}
	set, err := shard.New(pos, neg, shard.Config{Shards: 4, TotalBits: 300 * 12})
	if err != nil {
		tb.Fatal(err)
	}
	good := saveContainer(tb, set, false)

	seeds := map[string][]byte{
		"valid-container": good,
		"empty":           {},
		"magic-only":      []byte("HSNP"),
		// Truncated mid-frame: header intact, tail gone.
		"trunc-midframe": good[:len(good)/3],
		// Truncated to just under the footer.
		"trunc-footer": good[:len(good)-17],
	}
	// Corrupted payload byte: frame CRC must catch it.
	crcBad := append([]byte(nil), good...)
	crcBad[len(crcBad)/2] ^= 0x40
	seeds["payload-bitrot"] = crcBad
	// Corrupted frame CRC field itself (first frame header, bytes 16:20).
	fieldBad := append([]byte(nil), good...)
	fieldBad[64+16] ^= 0x01
	seeds["crc-field-bitrot"] = fieldBad
	// Header declaring a huge shard count, with the header CRC recomputed
	// so the seed reaches the implausible-count allocation guard instead
	// of dying on the CRC check.
	huge := append([]byte(nil), good...)
	huge[52], huge[53], huge[54], huge[55] = 0xFF, 0xFF, 0xFF, 0x7F
	seeds["huge-shard-count"] = fixHeaderCRC(huge)
	// Wrong container kind (CRC fixed up the same way): the type
	// discriminator, not shard.Restore, must reject it.
	wrongKind := append([]byte(nil), good...)
	wrongKind[48] = 2 // KindFilterBlocks in a sharded-set restore path
	seeds["wrong-kind"] = fixHeaderCRC(wrongKind)
	// Unknown backend kind in header byte 49 (CRC fixed): the filtercore
	// registry lookup must reject it before any frame is decoded.
	wrongBackend := append([]byte(nil), good...)
	wrongBackend[49] = 0xEE
	seeds["wrong-backend-kind"] = fixHeaderCRC(wrongBackend)
	// A route seed other than hashes.BaseSeed (CRC fixed up the same way),
	// as containers routed by the old xx64 fingerprint recorded: the
	// container decodes, and shard.Restore must refuse it.
	legacyRoute := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(legacyRoute[16:24], 0x9e3779b97f4a7c15)
	seeds["legacy-route-seed"] = fixHeaderCRC(legacyRoute)
	// Cross-backend frames: a header claiming the xor backend (kind 2)
	// over HABF frame payloads. The xor wire decoder must refuse the
	// frames (wrong magic), never misparse them.
	crossBackend := append([]byte(nil), good...)
	crossBackend[49] = 2
	seeds["cross-backend-frame"] = fixHeaderCRC(crossBackend)
	// Valid containers of the non-default backends, so the fuzzer mutates
	// every registered frame decoder (bloom, xor, wbf cache entries, phbf
	// seed tables, and the learned families' model + nested bloom blocks).
	for _, backend := range []string{"bloom", "xor", "wbf", "phbf", "lbf", "slbf", "adabf"} {
		set, err := shard.New(pos, neg, shard.Config{Shards: 4, TotalBits: 300 * 12, Backend: backend})
		if err != nil {
			tb.Fatal(err)
		}
		seeds["valid-"+backend+"-container"] = saveContainer(tb, set, false)
	}
	// Learned-container attacks: container-valid (CRCs recomputed by
	// MarshalBinary) but with a hostile shard payload, so the fuzzer
	// starts inside the learned wire decoders rather than dying at the
	// container checksum.
	mutateFrame := func(container []byte, mutate func(payload []byte) []byte) []byte {
		s, err := snapshot.Unmarshal(container)
		if err != nil {
			tb.Fatal(err)
		}
		s.Frames[0].Payload = mutate(append([]byte(nil), s.Frames[0].Payload...))
		data, err := s.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	// Model block cut mid-weights.
	seeds["learned-truncated-model"] = mutateFrame(seeds["valid-lbf-container"], func(p []byte) []byte {
		return p[:len(p)-2]
	})
	// Logistic weight count forced to 0xFFFFFFFF — must fail the bounds
	// check, not drive a 16 GiB allocation. The model block follows the
	// 28-byte LBF header and the backup block (length at payload 20:28).
	seeds["learned-hostile-weight-count"] = mutateFrame(seeds["valid-lbf-container"], func(p []byte) []byte {
		modelOff := 28 + binary.LittleEndian.Uint64(p[20:28])
		if p[modelOff] != 1 {
			tb.Fatalf("LBF frame model kind = %d, want logistic", p[modelOff])
		}
		binary.LittleEndian.PutUint32(p[modelOff+1:], 0xFFFFFFFF)
		return p
	})
	// Inner bloom block with a smashed magic (Ada-BF's shared bit array
	// starts right after its 20-byte header): the nested BLMF decoder
	// must reject it, never misparse.
	seeds["learned-wrong-inner-bloom"] = mutateFrame(seeds["valid-adabf-container"], func(p []byte) []byte {
		p[20] ^= 0xFF
		return p
	})
	// Pending-keys section: a static-backend set holding Adds its
	// filters do not represent saves them in the flagged extra frame of a
	// filter-only container, giving the fuzzer the pending decoder to
	// mutate; plus truncated and bit-rotted variants targeting that frame
	// specifically.
	xorSet, err := shard.New(pos, neg, shard.Config{Shards: 4, TotalBits: 300 * 12, Backend: "xor", RebuildThreshold: -1})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		xorSet.Add([]byte(fmt.Sprintf("fz-pend-%04d", i)))
	}
	pend := saveContainer(tb, xorSet, false)
	if s, err := snapshot.Unmarshal(pend); err != nil || len(s.Pending) == 0 {
		tb.Fatalf("pending seed carries no pending keys (%v)", err)
	}
	seeds["valid-pending-section"] = pend
	seeds["pending-truncated"] = pend[:len(pend)-40]
	pendRot := append([]byte(nil), pend...)
	pendRot[len(pendRot)-30] ^= 0x10 // inside the pending frame / footer region
	seeds["pending-bitrot"] = pendRot
	// Keys frames: a full container of an HABF set and of a xor set with
	// pending Adds, giving the fuzzer the keys decoder and the restore
	// path's pending recomputation; plus variants container-valid (CRCs
	// recomputed) but hostile inside the first keys frame.
	habfSet, err := shard.New(pos, neg, shard.Config{Shards: 2, TotalBits: 300 * 12, RebuildThreshold: -1})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		habfSet.Add([]byte(fmt.Sprintf("fz-add-%04d", i)))
	}
	keysFull := saveContainer(tb, habfSet, true)
	xorFull := saveContainer(tb, xorSet, true)
	seeds["valid-keys-container"] = keysFull
	seeds["valid-keys-xor-container"] = xorFull
	seeds["keys-truncated"] = keysFull[:len(keysFull)-100]
	keysRot := append([]byte(nil), keysFull...)
	keysRot[len(keysRot)-200] ^= 0x04 // inside the last keys frame
	seeds["keys-bitrot"] = keysRot
	// The first keys frame is frame 2 (two shards, default tuning).
	seeds["keys-hostile-count"] = patchFrame(keysFull, 2, func(p []byte) {
		binary.LittleEndian.PutUint64(p[0:8], 1<<40) // positives
	})
	seeds["keys-bad-offsets"] = patchFrame(keysFull, 2, func(p []byte) {
		binary.LittleEndian.PutUint32(p[24+4*3:], 0xFFFFFF00) // offset past the key bytes
	})
	seeds["keys-nan-cost"] = patchFrame(keysFull, 2, func(p []byte) {
		binary.LittleEndian.PutUint64(p[len(p)-8:], math.Float64bits(math.NaN())) // last negative's cost
	})
	// A header flag bit the format does not define (CRC fixed up).
	unknownFlag := append([]byte(nil), good...)
	unknownFlag[5] |= 1 << 7
	seeds["unknown-flag-bit"] = fixHeaderCRC(unknownFlag)
	// Tuning frame: a non-default knob set makes the snapshot carry the
	// flagged tuning frame, giving the fuzzer the tuning decoder and the
	// restore path's schema validation to mutate.
	tunedSet, err := shard.New(pos, neg, shard.Config{Shards: 4, TotalBits: 300 * 12, Backend: "xor", Tuning: "width=9"})
	if err != nil {
		tb.Fatal(err)
	}
	tuned := saveContainer(tb, tunedSet, false)
	tunedSnap, err := snapshot.Unmarshal(tuned)
	if err != nil || tunedSnap.Meta.Tuning == "" {
		tb.Fatalf("tuned seed carries no tuning frame (%v)", err)
	}
	seeds["valid-tuning-frame"] = tuned
	seeds["tuning-truncated"] = tuned[:len(tuned)-40]
	tuneRot := append([]byte(nil), tuned...)
	tuneRot[len(tuneRot)-30] ^= 0x10
	seeds["tuning-bitrot"] = tuneRot
	// Container-valid tuning frames the schema must reject at restore:
	// an unknown knob and an out-of-bounds value.
	for name, tuning := range map[string]string{
		"tuning-unknown-knob":  "bogus=1",
		"tuning-out-of-bounds": "width=999",
	} {
		bad := &snapshot.Snapshot{Meta: tunedSnap.Meta, Frames: tunedSnap.Frames}
		bad.Meta.Tuning = tuning
		data, err := bad.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		seeds[name] = data
	}
	return seeds
}

// patchFrame copies container, applies mutate to frame i's payload in
// place and recomputes that frame's CRC, so the result passes every
// container check and reaches the payload decoder.
func patchFrame(container []byte, i int, mutate func(payload []byte)) []byte {
	out := append([]byte(nil), container...)
	indexOff := binary.LittleEndian.Uint64(out[len(out)-16:])
	off := binary.LittleEndian.Uint64(out[indexOff+8*uint64(i):])
	hdr := out[off : off+24]
	start := off + 24 + uint64(binary.LittleEndian.Uint32(hdr[20:24]))
	payload := out[start : start+binary.LittleEndian.Uint64(hdr[8:16])]
	mutate(payload)
	tab := crc32.MakeTable(crc32.Castagnoli)
	crc := crc32.Update(0, tab, hdr[0:16])
	crc = crc32.Update(crc, tab, hdr[20:24])
	crc = crc32.Update(crc, tab, out[off+24:start])
	crc = crc32.Update(crc, tab, payload)
	binary.LittleEndian.PutUint32(hdr[16:20], crc)
	return out
}

// snapshotCorpusDir is where the committed FuzzUnmarshalSnapshot seeds
// live; `go test -fuzz` picks them up automatically.
const snapshotCorpusDir = "testdata/fuzz/FuzzUnmarshalSnapshot"

// TestSnapshotSeedCorpus keeps the committed seed corpus honest (see
// TestFilterSeedCorpus in internal/habf for the scheme). Regenerate with
//
//	UPDATE_FUZZ_CORPUS=1 go test -run TestSnapshotSeedCorpus ./internal/snapshot
func TestSnapshotSeedCorpus(t *testing.T) {
	seeds := fuzzSnapshotSeeds(t)
	if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
		if err := fuzzcorpus.WriteDir(snapshotCorpusDir, seeds); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d seeds to %s", len(seeds), snapshotCorpusDir)
	}
	committed, err := fuzzcorpus.ReadDir(snapshotCorpusDir)
	if err != nil {
		t.Fatalf("reading corpus (regenerate with UPDATE_FUZZ_CORPUS=1): %v", err)
	}
	for _, name := range fuzzcorpus.Names(seeds) {
		if _, ok := committed[name]; !ok {
			t.Errorf("seed %q not committed (regenerate with UPDATE_FUZZ_CORPUS=1)", name)
		}
	}
	for _, name := range fuzzcorpus.Names(committed) {
		data := committed[name]
		s, err := snapshot.Unmarshal(data)
		if err != nil {
			continue
		}
		restored, err := shard.Restore(s)
		if err != nil {
			continue
		}
		restored.Contains([]byte("probe"))
		restored.Contains(nil)
	}
	if data, ok := committed["valid-container"]; ok {
		if _, err := snapshot.Unmarshal(data); err != nil {
			t.Errorf("committed valid-container seed rejected: %v (regenerate with UPDATE_FUZZ_CORPUS=1)", err)
		}
	}
}
