package habf_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
// Each fixture also goes through a full Save and Load: the filter-only
// save of the loaded set must hash the same, so a full snapshot brings
// back the very filters (and epochs) that were built.
func TestShardedConstructionDigest(t *testing.T) {
	const n = 20000
	fixed := func(i int, kind string) []byte {
		return []byte(fmt.Sprintf("digest/%s/%06d", kind, i))
	}
	mixed := func(i int, kind string) []byte {
		return []byte(fmt.Sprintf("%s/%s/%d", strings.Repeat("m", i%4), kind, i))
	}
	for _, tc := range []struct {
		name string
		key  func(i int, kind string) []byte
		opts []habf.ShardedOption
		want string
	}{
		{"slow", fixed, nil, "77ed8f76bf45e5703a6e2cbfe119035a4c1e6155976554d0be7e60fd48f5c374"},
		{"fast", fixed, []habf.ShardedOption{habf.WithFastShards()}, "48b9c79dff1db99ba815a26523f5fe7ba2d24f940ec773853b92d5b130070619"},
		{"cell5k4", fixed, []habf.ShardedOption{habf.WithShardFilterOptions(habf.WithCellBits(5), habf.WithK(4))}, "45ab64b381c47ab34b6ec284073801866c2ea9fd7e9f6b1bee003c1fd49505f9"},
		{"mixedlen", mixed, nil, "fe67f53db777591e36cd96cdab4bd470303e7fefa2122b84f39a6272bd8e2940"},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			digest := func(s *habf.Sharded) string {
				var buf bytes.Buffer
				if err := s.SaveFilters(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				return hex.EncodeToString(sum[:])
			}
			if got := digest(s); got != tc.want {
				t.Errorf("snapshot digest drifted:\n got  %s\n want %s", got, tc.want)
			}
			var full bytes.Buffer
			if err := s.Save(&full); err != nil {
				t.Fatal(err)
			}
			g, err := habf.Load(full.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(g); got != tc.want {
				t.Errorf("filter-only digest after full Save → Load drifted:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}
