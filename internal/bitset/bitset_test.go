package bitset

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAllZero(t *testing.T) {
	b := New(1000)
	if b.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", b.Len())
	}
	if b.OnesCount() != 0 {
		t.Fatalf("fresh vector has %d ones", b.OnesCount())
	}
	for i := uint64(0); i < 1000; i++ {
		if b.Test(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
	}
}

func TestSetTestClear(t *testing.T) {
	b := New(130)
	idx := []uint64{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		b.Set(i)
	}
	for _, i := range idx {
		if !b.Test(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if got := b.OnesCount(); got != uint64(len(idx)) {
		t.Errorf("OnesCount = %d, want %d", got, len(idx))
	}
	for _, i := range idx {
		b.Clear(i)
		if b.Test(i) {
			t.Errorf("bit %d still set after Clear", i)
		}
	}
	if b.OnesCount() != 0 {
		t.Errorf("OnesCount = %d after clearing all", b.OnesCount())
	}
}

func TestSetIdempotent(t *testing.T) {
	b := New(64)
	b.Set(10)
	b.Set(10)
	if b.OnesCount() != 1 {
		t.Fatalf("double Set produced %d ones", b.OnesCount())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for name, fn := range map[string]func(){
		"Set":   func() { b.Set(10) },
		"Clear": func() { b.Clear(10) },
		"Test":  func() { _ = b.Test(10) },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s(10) on len-10 vector did not panic", name)
				} else if want := "bitset: " + name + "(10) out of range [0,10)"; fmt.Sprint(r) != want {
					t.Errorf("%s(10) panicked with %q, want %q", name, r, want)
				}
			}()
			fn()
		}()
	}
}

func TestFillRatio(t *testing.T) {
	b := New(100)
	if b.FillRatio() != 0 {
		t.Fatalf("fresh FillRatio = %v", b.FillRatio())
	}
	for i := uint64(0); i < 50; i++ {
		b.Set(i)
	}
	if got := b.FillRatio(); got != 0.5 {
		t.Fatalf("FillRatio = %v, want 0.5", got)
	}
	var empty Bits
	if empty.FillRatio() != 0 {
		t.Fatalf("zero-value FillRatio = %v", empty.FillRatio())
	}
}

func TestReset(t *testing.T) {
	b := New(200)
	for i := uint64(0); i < 200; i += 3 {
		b.Set(i)
	}
	b.Reset()
	if b.OnesCount() != 0 {
		t.Fatalf("Reset left %d ones", b.OnesCount())
	}
}

func TestCloneIndependence(t *testing.T) {
	b := New(128)
	b.Set(5)
	c := b.Clone()
	if !b.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Set(6)
	if b.Test(6) {
		t.Fatal("mutating clone changed original")
	}
	b.Set(7)
	if c.Test(7) {
		t.Fatal("mutating original changed clone")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(64), New(64)
	a.Set(3)
	if a.Equal(b) {
		t.Fatal("different contents reported equal")
	}
	b.Set(3)
	if !a.Equal(b) {
		t.Fatal("identical contents reported unequal")
	}
	if a.Equal(New(65)) {
		t.Fatal("different lengths reported equal")
	}
}

func TestBitsMarshalRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []uint64{0, 1, 63, 64, 65, 1000} {
		b := New(n)
		for i := uint64(0); i < n; i++ {
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		data, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var c Bits
		if err := c.UnmarshalBinaryBorrow(data); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !b.Equal(&c) {
			t.Fatalf("n=%d: roundtrip mismatch", n)
		}
	}
}

func TestBitsUnmarshalErrors(t *testing.T) {
	var b Bits
	if err := b.UnmarshalBinaryBorrow(nil); err == nil {
		t.Error("nil input accepted")
	}
	if err := b.UnmarshalBinaryBorrow(make([]byte, 12)); err == nil {
		t.Error("bad magic accepted")
	}
	good, _ := New(64).MarshalBinary()
	if err := b.UnmarshalBinaryBorrow(good[:len(good)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
}

// Property: a random sequence of sets and clears behaves like a map[uint64]bool.
func TestBitsQuickAgainstMap(t *testing.T) {
	f := func(ops []uint16) bool {
		b := New(512)
		ref := make(map[uint64]bool)
		for _, op := range ops {
			i := uint64(op) % 512
			if op%3 == 0 {
				b.Clear(i)
				delete(ref, i)
			} else {
				b.Set(i)
				ref[i] = true
			}
		}
		for i := uint64(0); i < 512; i++ {
			if b.Test(i) != ref[i] {
				return false
			}
		}
		return b.OnesCount() == uint64(len(ref))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBitsSet(b *testing.B) {
	v := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Set(uint64(i) & (1<<20 - 1))
	}
}

func BenchmarkBitsTest(b *testing.B) {
	v := New(1 << 20)
	for i := uint64(0); i < 1<<20; i += 7 {
		v.Set(i)
	}
	b.ReportAllocs()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = v.Test(uint64(i) & (1<<20 - 1))
	}
	_ = sink
}
