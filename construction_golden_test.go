package habf_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	habf "repro"
)

// TestShardedConstructionDigest pins the exact bytes NewSharded builds:
// the SHA-256 of Save() over a fixed fixture, in slow and f-HABF mode.
// Routing, the per-shard key order handed to TPJO and every TPJO decision
// feed the snapshot, so a construction refactor that is meant to change
// nothing but speed must leave both digests as they are. Update them only
// for an intentional change to what gets built.
func TestShardedConstructionDigest(t *testing.T) {
	const n = 20000
	pos := make([][]byte, n)
	neg := make([]habf.WeightedKey, n)
	for i := range pos {
		pos[i] = []byte(fmt.Sprintf("digest/member/%06d", i))
		neg[i] = habf.WeightedKey{
			Key:  []byte(fmt.Sprintf("digest/outsider/%06d", i)),
			Cost: float64(i%31 + 1),
		}
	}
	for _, tc := range []struct {
		name string
		opts []habf.ShardedOption
		want string
	}{
		{"slow", nil, "77ed8f76bf45e5703a6e2cbfe119035a4c1e6155976554d0be7e60fd48f5c374"},
		{"fast", []habf.ShardedOption{habf.WithFastShards()}, "48b9c79dff1db99ba815a26523f5fe7ba2d24f940ec773853b92d5b130070619"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]habf.ShardedOption{
				habf.WithShards(8),
				habf.WithShardFilterOptions(habf.WithSeed(9)),
			}, tc.opts...)
			s, err := habf.NewSharded(pos, neg, 10*n, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := s.Save(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("snapshot digest drifted:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}
