package habf

import (
	"fmt"
	"testing"
)

func testFamily(k int, fast bool) *family {
	p := Params{TotalBits: 1 << 16, K: k, Fast: fast}.withDefaults()
	return newFamily(p)
}

func TestHashExpressorEmptyQuery(t *testing.T) {
	fam := testFamily(3, false)
	he := newHashExpressor(4096, 4, 3)
	ks := fam.prepare([]byte("nobody"))
	if phi := he.query(fam, ks, nil); phi != nil {
		t.Fatalf("empty table returned selection %v", phi)
	}
}

func TestHashExpressorInsertThenQuery(t *testing.T) {
	for _, fast := range []bool{false, true} {
		t.Run(fmt.Sprintf("fast=%v", fast), func(t *testing.T) {
			fam := testFamily(3, fast)
			he := newHashExpressor(1<<14, 4, 3)
			type entry struct {
				key []byte
				phi []uint8
			}
			var inserted []entry
			for i := 0; i < 200; i++ {
				key := []byte(fmt.Sprintf("key-%d", i))
				phi := []uint8{uint8(i % 5), uint8((i + 1) % 5), uint8((i + 2) % 7)}
				if phi[0] == phi[1] || phi[1] == phi[2] || phi[0] == phi[2] {
					continue
				}
				ks := fam.prepare(key)
				kh := fam.hashAll(ks)
				plan, ok := he.simulate(&kh, phi)
				if !ok {
					continue // table pressure; fine
				}
				he.commit(plan)
				inserted = append(inserted, entry{key, phi})
			}
			if len(inserted) < 50 {
				t.Fatalf("only %d/200 selections insertable; table unexpectedly tight", len(inserted))
			}
			// Zero FNR of HashExpressor: every inserted key retrieves its
			// selection (as a set).
			for _, e := range inserted {
				ks := fam.prepare(e.key)
				got := he.query(fam, ks, nil)
				if got == nil {
					t.Fatalf("inserted key %q not retrievable", e.key)
				}
				want := map[uint8]bool{}
				for _, v := range e.phi {
					want[v] = true
				}
				for _, v := range got {
					if !want[v] {
						t.Fatalf("key %q: retrieved %v, inserted %v", e.key, got, e.phi)
					}
				}
				if len(got) != len(e.phi) {
					t.Fatalf("key %q: retrieved %d indices, want %d", e.key, len(got), len(e.phi))
				}
			}
		})
	}
}

func TestHashExpressorSimulateDoesNotMutate(t *testing.T) {
	fam := testFamily(3, false)
	he := newHashExpressor(1<<12, 4, 3)
	snapshot := func() []uint64 {
		out := make([]uint64, he.omega)
		for i := uint64(0); i < he.omega; i++ {
			out[i] = he.cells.Get(i)
		}
		return out
	}
	before := snapshot()
	for i := 0; i < 50; i++ {
		ks := fam.prepare([]byte(fmt.Sprintf("sim-%d", i)))
		kh := fam.hashAll(ks)
		he.simulate(&kh, []uint8{0, 1, 2})
	}
	after := snapshot()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("simulate mutated cell %d", i)
		}
	}
	if he.Inserted() != 0 {
		t.Fatal("simulate incremented insert count")
	}
}

func TestHashExpressorCellNeverOverwritten(t *testing.T) {
	fam := testFamily(3, false)
	he := newHashExpressor(1<<13, 4, 3)
	type cellVal struct{ v uint8 }
	claimed := map[uint64]cellVal{}
	for i := 0; i < 300; i++ {
		key := []byte(fmt.Sprintf("ow-%d", i))
		phi := []uint8{uint8(i) % 7, (uint8(i) + 1) % 7, (uint8(i) + 3) % 7}
		if phi[0] == phi[1] || phi[1] == phi[2] || phi[0] == phi[2] {
			continue
		}
		ks := fam.prepare(key)
		kh := fam.hashAll(ks)
		plan, ok := he.simulate(&kh, phi)
		if !ok {
			continue
		}
		he.commit(plan)
		for s := 0; s < plan.n; s++ {
			c := plan.cells[s]
			_, v := he.load(c)
			if prev, seen := claimed[c]; seen && prev.v != v {
				t.Fatalf("cell %d hashindex changed %d -> %d", c, prev.v, v)
			}
			claimed[c] = cellVal{v}
		}
	}
}

func TestHashExpressorSaturation(t *testing.T) {
	// A tiny table must start rejecting insertions rather than corrupting
	// earlier entries.
	fam := testFamily(3, false)
	he := newHashExpressor(16*4, 4, 3) // 16 cells
	var okCount int
	type entry struct {
		key []byte
		phi []uint8
	}
	var inserted []entry
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("sat-%d", i))
		phi := []uint8{0, 2, 4}
		ks := fam.prepare(key)
		kh := fam.hashAll(ks)
		plan, ok := he.simulate(&kh, phi)
		if ok {
			he.commit(plan)
			okCount++
			inserted = append(inserted, entry{key, phi})
		}
	}
	if okCount == 0 {
		t.Fatal("no insertions succeeded even on an empty table")
	}
	if okCount == 200 {
		t.Fatal("16-cell table accepted 200 selections; saturation logic broken")
	}
	for _, e := range inserted {
		ks := fam.prepare(e.key)
		if he.query(fam, ks, nil) == nil {
			t.Fatalf("saturated table lost key %q", e.key)
		}
	}
}

func TestHashExpressorLoadStore(t *testing.T) {
	he := newHashExpressor(1024, 4, 3)
	he.store(5, true, 7)
	end, v := he.load(5)
	if !end || v != 7 {
		t.Fatalf("load = (%v,%d), want (true,7)", end, v)
	}
	he.store(5, false, 3)
	end, v = he.load(5)
	if end || v != 3 {
		t.Fatalf("load = (%v,%d), want (false,3)", end, v)
	}
	if end, v := he.load(6); end || v != 0 {
		t.Fatal("untouched cell not empty")
	}
}

func TestHashExpressorOmegaMinimum(t *testing.T) {
	he := newHashExpressor(1, 4, 3) // under one cell of budget
	if he.omega != 1 {
		t.Fatalf("omega = %d, want 1", he.omega)
	}
}

func TestUsableFunctions(t *testing.T) {
	cases := []struct {
		cellBits uint
		fast     bool
		want     int
	}{
		{4, false, 7},
		{5, false, 15},
		{6, false, 22}, // corpus-limited
		{3, false, 3},
		{4, true, 7},
		{6, true, 31}, // fast mode is not corpus-limited
	}
	for _, c := range cases {
		if got := usableFunctions(c.cellBits, c.fast); got != c.want {
			t.Errorf("usableFunctions(%d, %v) = %d, want %d", c.cellBits, c.fast, got, c.want)
		}
	}
}
