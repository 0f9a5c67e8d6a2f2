package habf

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestConstructAllocs guards the builder's allocation count: New takes
// its working arrays from the scratch pool, so what it allocates per
// build is the filter itself plus Γ's buckets, not a few objects per
// key or per adjustment. The ceilings sit a little above the measured
// counts (default 4668, almost all of them Γ's buckets; f-HABF, which
// has no Γ, 30), leaving room for a pool miss, which costs about a dozen
// objects.
func TestConstructAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	pos, neg := goldenFixture()
	for _, tc := range []struct {
		name    string
		p       Params
		ceiling float64
	}{
		{"default", Params{}, 5000},
		{"fast", Params{Fast: true}, 64},
	} {
		got := testing.AllocsPerRun(5, func() {
			if _, err := New(pos, neg, goldenParams(tc.p)); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.ceiling {
			t.Errorf("%s: New allocates %v objects per build, want at most %v", tc.name, got, tc.ceiling)
		}
	}
}

// TestScratchReuseConcurrent builds the golden fixture from several
// goroutines at once, in configurations whose arrays differ in size
// (another K, cell size, budget or key count), so pooled scratches pass
// between goroutines and are reused at a smaller and a larger size than
// they were last cleared for. Every build must equal its serial build
// byte for byte, Stats included. Run it under -race as well.
func TestScratchReuseConcurrent(t *testing.T) {
	pos, neg := goldenFixture()
	type config struct {
		name string
		pos  [][]byte
		p    Params
	}
	var configs []config
	for _, m := range goldenModes {
		configs = append(configs, config{m.name, pos, goldenParams(m.p)})
	}
	configs = append(configs,
		config{"k4cell5", pos, goldenParams(Params{K: 4, CellBits: 5})},
		config{"k2cell3", pos, goldenParams(Params{K: 2, CellBits: 3})},
		config{"fastk5cell6", pos, goldenParams(Params{K: 5, CellBits: 6, Fast: true})},
		config{"small", pos[:3000], Params{TotalBits: 3000 * 12, Seed: 5}},
	)
	build := func(c config) ([]byte, Stats, error) {
		f, err := New(c.pos, neg, c.p)
		if err != nil {
			return nil, Stats{}, err
		}
		data, err := f.MarshalBinary()
		return data, f.Stats(), err
	}
	wantData := make([][]byte, len(configs))
	wantStats := make([]Stats, len(configs))
	for i, c := range configs {
		var err error
		if wantData[i], wantStats[i], err = build(c); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}

	const goroutines, rounds = 4, 3
	errs := make(chan error, goroutines*rounds*len(configs))
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				for i := range configs {
					// Each goroutine walks the configurations from its own
					// offset, so neighbours build different sizes at once.
					c := (i + g*len(configs)/goroutines + r) % len(configs)
					data, st, err := build(configs[c])
					switch {
					case err != nil:
						errs <- fmt.Errorf("%s: %v", configs[c].name, err)
					case !bytes.Equal(data, wantData[c]):
						errs <- fmt.Errorf("%s: goroutine %d round %d built other bytes than the serial build", configs[c].name, g, r)
					case st != wantStats[c]:
						errs <- fmt.Errorf("%s: goroutine %d round %d: stats %+v, serial %+v", configs[c].name, g, r, st, wantStats[c])
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
