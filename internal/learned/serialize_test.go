package learned

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"unsafe"
)

func serializeFixture(n int) (pos, neg [][]byte) {
	for i := 0; i < n; i++ {
		pos = append(pos, []byte(fmt.Sprintf("member-%06d", i)))
		neg = append(neg, []byte(fmt.Sprintf("absent-%06d", i)))
	}
	return pos, neg
}

// wireFixtures builds one filter per (family, model) combination worth a
// wire-format test, including the trivial 0/1-key shapes.
func wireFixtures(t *testing.T) map[string]filter {
	t.Helper()
	pos, neg := serializeFixture(400)
	build := func(name string, f filter, err error) filter {
		t.Helper()
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		return f
	}
	out := map[string]filter{}
	lbf, err := BuildLBF(pos, neg, 400*12, ServeOptions{})
	out["lbf-logistic"] = build("lbf-logistic", lbf, err)
	gru, err := BuildLBF(pos[:200], neg[:200], 1<<20, ServeOptions{Model: "gru", Epochs: 1})
	out["lbf-gru"] = build("lbf-gru", gru, err)
	slbf, err := BuildSLBF(pos, neg, 400*12, ServeOptions{Split: 0.25})
	out["slbf-logistic"] = build("slbf-logistic", slbf, err)
	ada, err := BuildAdaBF(pos, neg, 400*12, ServeOptions{Groups: 6})
	out["adabf-logistic"] = build("adabf-logistic", ada, err)
	for _, nkeys := range []int{0, 1} {
		l, err := BuildLBF(pos[:nkeys], nil, 64, ServeOptions{})
		out[fmt.Sprintf("lbf-trivial-%d", nkeys)] = build("lbf-trivial", l, err)
		s, err := BuildSLBF(pos[:nkeys], nil, 64, ServeOptions{})
		out[fmt.Sprintf("slbf-trivial-%d", nkeys)] = build("slbf-trivial", s, err)
		a, err := BuildAdaBF(pos[:nkeys], nil, 64, ServeOptions{})
		out[fmt.Sprintf("adabf-trivial-%d", nkeys)] = build("adabf-trivial", a, err)
	}
	return out
}

func decodeAs(f filter, data []byte) (filter, error) {
	switch f.(type) {
	case *LBF:
		return UnmarshalLBF(data)
	case *SLBF:
		return UnmarshalSLBF(data)
	case *AdaBF:
		return UnmarshalAdaBF(data)
	}
	panic("unknown filter type")
}

// placeWire copies wire into a fresh buffer whose byte off sits at an
// address congruent to mis modulo 8: mis 0 lets the decoder alias the
// aligned bit arrays, any other value forces its copy fallback.
func placeWire(wire []byte, off, mis int) []byte {
	buf := make([]byte, len(wire)+8)
	base := int(uintptr(unsafe.Pointer(&buf[0])) % 8)
	shift := ((mis-base-off)%8 + 8) % 8
	out := buf[shift : shift+len(wire)]
	copy(out, wire)
	return out
}

// TestWireRoundTrip: decoding an aligned payload (borrow: the bit arrays
// alias it) and a misaligned one (owned: the decoder copies) must both
// reproduce the exact query behavior and re-marshal byte-identically —
// the contract snapshot container dedup and replica shipping rely on.
func TestWireRoundTrip(t *testing.T) {
	pos, neg := serializeFixture(400)
	probes := append(append([][]byte{}, pos...), neg...)
	for name, f := range wireFixtures(t) {
		for _, mode := range []string{"owned", "borrow"} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				wire, err := f.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				mis := 0
				if mode == "owned" {
					mis = 1
				}
				g, err := decodeAs(f, placeWire(wire, f.WireAlignOffset(), mis))
				if err != nil {
					t.Fatal(err)
				}
				for _, key := range probes {
					if f.Contains(key) != g.Contains(key) {
						t.Fatalf("decoded filter disagrees on %q", key)
					}
				}
				if f.SizeBits() != g.SizeBits() {
					t.Fatalf("SizeBits %d != %d after decode", g.SizeBits(), f.SizeBits())
				}
				again, err := g.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wire, again) {
					t.Fatal("re-marshal is not byte-identical")
				}
				if mode == "owned" && g.Borrowed() {
					t.Fatal("misaligned decode reports Borrowed")
				}
			})
		}
	}
}

// TestDecodedGRUNameReconstructed: the wire format does not carry the
// display name; the decoder derives it from the model kind.
func TestDecodedGRUNameReconstructed(t *testing.T) {
	fx := wireFixtures(t)
	wire, err := fx["lbf-gru"].(*LBF).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := UnmarshalLBF(wire)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "LBF(GRU)" {
		t.Fatalf("decoded Name = %q, want LBF(GRU)", g.Name())
	}
}

// hostileMutations corrupts a valid payload in every way the decoders
// must reject. Each mutation returns the corrupted copy.
func hostileMutations(valid []byte, headerSize int, blockLenOff int) map[string][]byte {
	mut := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	return map[string][]byte{
		"empty":           {},
		"short header":    mut(func(b []byte) []byte { return b[:headerSize-1] }),
		"bad magic":       mut(func(b []byte) []byte { b[0] ^= 0xFF; return b }),
		"bad version":     mut(func(b []byte) []byte { b[4] = 9; return b }),
		"unknown flags":   mut(func(b []byte) []byte { b[5] |= 0x80; return b }),
		"truncated model": mut(func(b []byte) []byte { return b[:len(b)-1] }),
		"trailing bytes":  mut(func(b []byte) []byte { return append(b, 0xAA) }),
		"oversized inner block": mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[blockLenOff:], uint64(len(b))+1e6)
			return b
		}),
	}
}

func TestHostilePayloadsRejected(t *testing.T) {
	fx := wireFixtures(t)
	for _, tc := range []struct {
		name        string
		f           filter
		headerSize  int
		blockLenOff int
	}{
		{"lbf", fx["lbf-logistic"], lbfHeaderSize, 20},
		{"slbf", fx["slbf-logistic"], slbfHeaderSize, 20},
		{"adabf", fx["adabf-logistic"], adabfHeaderSize, 12},
	} {
		valid, err := tc.f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		muts := hostileMutations(valid, tc.headerSize, tc.blockLenOff)
		if tc.name != "adabf" {
			withReserved := append([]byte(nil), valid...)
			withReserved[6] = 1
			muts["nonzero reserved"] = withReserved
		} else {
			withReserved := append([]byte(nil), valid...)
			withReserved[8] = 1
			muts["nonzero reserved"] = withReserved
			zeroGroups := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint16(zeroGroups[6:], 0)
			muts["zero groups"] = zeroGroups
			hugeGroups := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint16(hugeGroups[6:], maxAdaGroups+1)
			muts["hostile group count"] = hugeGroups
		}
		for mname, data := range muts {
			if _, err := decodeAs(tc.f, data); err == nil {
				t.Errorf("%s/%s: hostile payload accepted", tc.name, mname)
			}
		}
	}
}

// TestHostileModelBlocksRejected attacks the model block directly: a
// weight count chosen to drive a giant allocation, an unknown model
// kind, and GRU dims past the sanity bound must all fail before any
// allocation happens.
func TestHostileModelBlocksRejected(t *testing.T) {
	if _, _, err := decodeModel(nil); err == nil {
		t.Error("empty model block accepted")
	}
	if _, _, err := decodeModel([]byte{77}); err == nil {
		t.Error("unknown model kind accepted")
	}
	hostileCount := []byte{modelLogistic, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	if _, _, err := decodeModel(hostileCount); err == nil {
		t.Error("hostile logistic weight count accepted")
	}
	zeroDim := []byte{modelLogistic, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, _, err := decodeModel(zeroDim); err == nil {
		t.Error("zero logistic weight count accepted")
	}
	truncated := []byte{modelLogistic, 8, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3}
	if _, _, err := decodeModel(truncated); err == nil {
		t.Error("truncated logistic weights accepted")
	}
	hostileGRU := make([]byte, 11)
	hostileGRU[0] = modelGRU
	binary.LittleEndian.PutUint16(hostileGRU[1:], 0xFFFF) // hidden
	binary.LittleEndian.PutUint16(hostileGRU[3:], 32)
	binary.LittleEndian.PutUint16(hostileGRU[5:], 48)
	if _, _, err := decodeModel(hostileGRU); err == nil {
		t.Error("hostile GRU hidden dim accepted")
	}
}

// TestHostileInnerBloomRejected: an inner block that is not a BLMF
// container (wrong magic) must fail with the family named in the error.
func TestHostileInnerBloomRejected(t *testing.T) {
	fx := wireFixtures(t)
	valid, err := fx["lbf-logistic"].(*LBF).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), valid...)
	// The backup BLMF block starts right after the LBF header; smash its
	// magic.
	corrupt[lbfHeaderSize] ^= 0xFF
	if _, err := UnmarshalLBF(corrupt); err == nil {
		t.Error("wrong inner-bloom magic accepted")
	}
}
