package habf

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// goldenFixture is the fixed 20k/20k workload the construction goldens
// build over. Costs are 1/(i%97+1): skewed, with many ties, and with sums
// that are not exact in binary, so both the order of the cost sorts and
// the order in which the weighted FPRs are summed show in the pins.
func goldenFixture() ([][]byte, []WeightedKey) {
	const n = 20000
	pos := make([][]byte, n)
	neg := make([]WeightedKey, n)
	for i := range pos {
		pos[i] = []byte(fmt.Sprintf("golden/ablate/member/%05d", i))
		neg[i] = WeightedKey{
			Key:  []byte(fmt.Sprintf("golden/ablate/outsider/%05d", i)),
			Cost: 1 / float64(i%97+1),
		}
	}
	return pos, neg
}

// goldenModes are the construction paths the goldens pin: the default
// build, f-HABF and the three ablation switches, each of which takes a
// branch of TPJO the others do not.
var goldenModes = []struct {
	name string
	p    Params
}{
	{"default", Params{}},
	{"fast", Params{Fast: true}},
	{"nogamma", Params{DisableGamma: true}},
	{"nocostorder", Params{DisableCostOrdering: true}},
	{"nooverlap", Params{DisableOverlapRanking: true}},
}

// goldenParams completes a mode's Params with the fixture's budget and
// seed.
func goldenParams(p Params) Params {
	p.TotalBits = 20000 * 6
	p.Seed = 77
	return p
}

// statsLine renders every Stats field exactly, the FPRs by their bits.
func statsLine(s Stats) string {
	return fmt.Sprintf("T=%d t=%d failed=%d requeued=%d adjusted=%d inserts=%d fpr=%#x/%#x wfpr=%#x/%#x",
		s.CollisionKeys, s.Optimized, s.Failed, s.Requeued, s.AdjustedPositives, s.HashExpressorInserts,
		math.Float64bits(s.FPRBefore), math.Float64bits(s.FPRAfter),
		math.Float64bits(s.WeightedFPRBefore), math.Float64bits(s.WeightedFPRAfter))
}

// marshalDigest is the SHA-256 of the filter's MarshalBinary, in hex.
func marshalDigest(t testing.TB, f *Filter) string {
	t.Helper()
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestGoldenAblations pins the complete construction outcome of every
// mode in goldenModes: each Stats count, the four FPRs bit for bit, and
// the SHA-256 of the serialized filter. TestGoldenConstruction pins the
// default build only; this covers the f-HABF and ablation paths, whose
// sorts and bookkeeping a construction refactor touches as well. Update
// a constant only for an intentional change to what gets built.
func TestGoldenAblations(t *testing.T) {
	want := map[string][2]string{
		"default": {
			"T=1757 t=1622 failed=158 requeued=1 adjusted=1508 inserts=1508 fpr=0x3fb67d566cf41f21/0x3f8182a9930be0df wfpr=0x3fb753bd0a7e5549/0x3f7d89a63493398d",
			"1c778ae0e0d79a8a7d7ffd107f21e6ebac8c4d50a1fbeb0f31cb390bff62c3f3",
		},
		"fast": {
			"T=2012 t=1827 failed=209 requeued=0 adjusted=1704 inserts=1704 fpr=0x3fb9c0ebedfa43fe/0x3f87c1bda5119ce0 wfpr=0x3fbc300dcb0c05e6/0x3f72bbf87f7a4873",
			"68379532190a228366d9e554cf8386c95afdb963a255da9e46cf57d3ac68b4d3",
		},
		"nogamma": {
			"T=1757 t=1620 failed=157 requeued=0 adjusted=1509 inserts=1509 fpr=0x3fb67d566cf41f21/0x3f81b71758e21965 wfpr=0x3fb753bd0a7e5549/0x3f7ddf6dbbb09a63",
			"da85fc722f3f0c213bc58ceaedea7a5816ad9bb81042be0602542f9eb1818cb9",
		},
		"nocostorder": {
			"T=1757 t=1617 failed=158 requeued=3 adjusted=1491 inserts=1491 fpr=0x3fb67d566cf41f21/0x3f813404ea4a8c15 wfpr=0x3fb753bd0a7e5549/0x3f82a61a6699f9e3",
			"222faf9c608347e6438d94820bb8a9dc28e55a8d7bf28cf010d621903d8303e8",
		},
		"nooverlap": {
			"T=1757 t=1608 failed=168 requeued=1 adjusted=1493 inserts=1493 fpr=0x3fb67d566cf41f21/0x3f8288ce703afb7f wfpr=0x3fb753bd0a7e5549/0x3f79bc0288145bf0",
			"ab7ec2cf54b4ad96eee339b16e5d9e8c2af3162822339b10ad9a3e5d4992bac1",
		},
	}
	pos, neg := goldenFixture()
	for _, m := range goldenModes {
		t.Run(m.name, func(t *testing.T) {
			f, err := New(pos, neg, goldenParams(m.p))
			if err != nil {
				t.Fatal(err)
			}
			w := want[m.name]
			if got := statsLine(f.Stats()); got != w[0] {
				t.Errorf("stats drifted:\n got  %s\n want %s", got, w[0])
			}
			if got := marshalDigest(t, f); got != w[1] {
				t.Errorf("filter digest drifted:\n got  %s\n want %s", got, w[1])
			}
		})
	}
}
