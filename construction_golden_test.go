package habf_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"

	habf "repro"
)

// TestShardedConstructionDigest pins the exact bytes NewSharded builds:
// the SHA-256 of SaveFilters() over fixed fixtures. Routing, the per-shard key
// order handed to TPJO and every TPJO decision feed the snapshot, so a
// construction refactor that is meant to change nothing but speed must
// leave every digest as it is. Update them only for an intentional change
// to what gets built.
//
// The fixed-width fixture runs in slow and f-HABF mode and with the
// 15-function family (cell size 5, k = 4). The mixed-length fixture gives
// the hashing pass groups of keys whose lengths differ as well as groups
// whose lengths match, and shard sizes that leave partial chunks.
//
// Each fixture's full Save, keys frames included, is pinned the same
// way and then loaded: the filter-only save of the loaded set must hash
// the same, so a full snapshot brings back the very filters (and
// epochs) that were built.
func TestShardedConstructionDigest(t *testing.T) {
	for _, tc := range digestCases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t)
			if got := filtersDigest(t, s); got != tc.want {
				t.Errorf("snapshot digest drifted:\n got  %s\n want %s", got, tc.want)
			}
			var full bytes.Buffer
			if err := s.Save(&full); err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(full.Bytes()); hex.EncodeToString(sum[:]) != tc.full {
				t.Errorf("full snapshot digest drifted:\n got  %x\n want %s", sum, tc.full)
			}
			g, err := habf.Load(full.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if got := filtersDigest(t, g); got != tc.want {
				t.Errorf("filter-only digest after full Save → Load drifted:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}

// TestShardedConstructionDigestProcs builds every digestCases fixture
// with one and with four schedulable threads. NewSharded builds its
// shards on min(GOMAXPROCS, shards) workers that share pooled builder
// scratch, so the worker count and which worker builds which shard change
// with it; the filters must not.
func TestShardedConstructionDigestProcs(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprint("procs", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, tc := range digestCases {
				if got := filtersDigest(t, tc.build(t)); got != tc.want {
					t.Errorf("%s: snapshot digest drifted:\n got  %s\n want %s", tc.name, got, tc.want)
				}
			}
		})
	}
}

// digestCase is one fixture of the construction digests.
type digestCase struct {
	name string
	key  func(i int, kind string) []byte
	opts []habf.ShardedOption
	want string // SaveFilters
	full string // Save
}

func digestFixedKey(i int, kind string) []byte {
	return []byte(fmt.Sprintf("digest/%s/%06d", kind, i))
}

func digestMixedKey(i int, kind string) []byte {
	return []byte(fmt.Sprintf("%s/%s/%d", strings.Repeat("m", i%4), kind, i))
}

var digestCases = []digestCase{
	{"slow", digestFixedKey, nil, "77ed8f76bf45e5703a6e2cbfe119035a4c1e6155976554d0be7e60fd48f5c374", "41cceda329bc033c7326a906bf9a6be731475da19b683385f6d932b026bc4deb"},
	{"fast", digestFixedKey, []habf.ShardedOption{habf.WithFastShards()}, "48b9c79dff1db99ba815a26523f5fe7ba2d24f940ec773853b92d5b130070619", "11a45ae6c9224703f37b0660a81731824e9a8033cb63ea75df633833282ff78f"},
	{"cell5k4", digestFixedKey, []habf.ShardedOption{habf.WithShardFilterOptions(habf.WithCellBits(5), habf.WithK(4))}, "45ab64b381c47ab34b6ec284073801866c2ea9fd7e9f6b1bee003c1fd49505f9", "5f7c373be0d2b10c6b06e2c9bd4500fbfa801b5e7eb19492cd0b217c28f4162e"},
	{"mixedlen", digestMixedKey, nil, "fe67f53db777591e36cd96cdab4bd470303e7fefa2122b84f39a6272bd8e2940", "0420acbe41e655351dab8862fa4fde307ed21026a26d155cd6a1f33f470bb43c"},
}

// build makes the fixture's sharded set: 20000 members and as many
// costed outsiders, 10 bits per key, 8 shards, seed 9.
func (tc digestCase) build(t *testing.T) *habf.Sharded {
	t.Helper()
	const n = 20000
	pos := make([][]byte, n)
	neg := make([]habf.WeightedKey, n)
	for i := range pos {
		pos[i] = tc.key(i, "member")
		neg[i] = habf.WeightedKey{Key: tc.key(i, "outsider"), Cost: float64(i%31 + 1)}
	}
	opts := append([]habf.ShardedOption{
		habf.WithShards(8),
		habf.WithShardFilterOptions(habf.WithSeed(9)),
	}, tc.opts...)
	s, err := habf.NewSharded(pos, neg, 10*n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// filtersDigest is the SHA-256 of the set's filter-only snapshot, in hex.
func filtersDigest(t *testing.T, s *habf.Sharded) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveFilters(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}
