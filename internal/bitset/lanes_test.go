package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLanesBasic(t *testing.T) {
	for _, width := range []uint{1, 3, 4, 5, 8, 13, 16, 31, 32, 33, 63, 64} {
		l := NewLanes(100, width)
		if l.Len() != 100 || l.Width() != width {
			t.Fatalf("width %d: Len/Width wrong", width)
		}
		for i := uint64(0); i < 100; i++ {
			if l.Get(i) != 0 {
				t.Fatalf("width %d: fresh lane %d nonzero", width, i)
			}
		}
	}
}

func TestLanesSetGetAcrossWordBoundaries(t *testing.T) {
	// Width 13 guarantees many lanes straddle 64-bit word boundaries.
	l := NewLanes(200, 13)
	rng := rand.New(rand.NewSource(7))
	want := make([]uint64, 200)
	for i := range want {
		want[i] = rng.Uint64() & (1<<13 - 1)
		l.Set(uint64(i), want[i])
	}
	for i, w := range want {
		if got := l.Get(uint64(i)); got != w {
			t.Fatalf("lane %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestLanesTruncation(t *testing.T) {
	l := NewLanes(4, 4)
	l.Set(1, 0xFF) // only low 4 bits should persist
	if got := l.Get(1); got != 0xF {
		t.Fatalf("Get = %#x, want 0xF", got)
	}
	if l.Get(0) != 0 || l.Get(2) != 0 {
		t.Fatal("neighbouring lanes disturbed")
	}
}

func TestLanesOverwriteDoesNotLeak(t *testing.T) {
	l := NewLanes(50, 7)
	for i := uint64(0); i < 50; i++ {
		l.Set(i, 0x7F)
	}
	l.Set(25, 0)
	if l.Get(25) != 0 {
		t.Fatal("overwrite with zero failed")
	}
	if l.Get(24) != 0x7F || l.Get(26) != 0x7F {
		t.Fatal("overwrite disturbed neighbours")
	}
}

func TestLanesWidth64(t *testing.T) {
	l := NewLanes(10, 64)
	l.Set(3, ^uint64(0))
	if l.Get(3) != ^uint64(0) {
		t.Fatal("64-bit lane roundtrip failed")
	}
	if l.Get(2) != 0 || l.Get(4) != 0 {
		t.Fatal("64-bit lane disturbed neighbours")
	}
}

func TestLanesInvalidWidthPanics(t *testing.T) {
	for _, w := range []uint{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d did not panic", w)
				}
			}()
			NewLanes(1, w)
		}()
	}
}

func TestLanesOutOfRangePanics(t *testing.T) {
	l := NewLanes(5, 8)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Get out of range did not panic")
			}
		}()
		l.Get(5)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Set out of range did not panic")
			}
		}()
		l.Set(5, 1)
	}()
}

func TestLanesResetClone(t *testing.T) {
	l := NewLanes(20, 5)
	for i := uint64(0); i < 20; i++ {
		l.Set(i, i%32)
	}
	c := l.Clone()
	l.Reset()
	for i := uint64(0); i < 20; i++ {
		if l.Get(i) != 0 {
			t.Fatal("Reset left residue")
		}
		if c.Get(i) != i%32 {
			t.Fatal("clone affected by Reset of original")
		}
	}
}

func TestLanesMarshalRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		n     uint64
		width uint
	}{{0, 4}, {1, 1}, {17, 13}, {100, 4}, {64, 64}} {
		l := NewLanes(tc.n, tc.width)
		for i := uint64(0); i < tc.n; i++ {
			l.Set(i, rng.Uint64())
		}
		data, err := l.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var m Lanes
		if err := m.UnmarshalBinaryBorrow(data); err != nil {
			t.Fatalf("n=%d w=%d: %v", tc.n, tc.width, err)
		}
		if m.Len() != tc.n || m.Width() != tc.width {
			t.Fatalf("n=%d w=%d: header mismatch", tc.n, tc.width)
		}
		for i := uint64(0); i < tc.n; i++ {
			if m.Get(i) != l.Get(i) {
				t.Fatalf("n=%d w=%d: lane %d mismatch", tc.n, tc.width, i)
			}
		}
	}
}

func TestLanesUnmarshalErrors(t *testing.T) {
	var l Lanes
	if err := l.UnmarshalBinaryBorrow(nil); err == nil {
		t.Error("nil input accepted")
	}
	if err := l.UnmarshalBinaryBorrow(make([]byte, 16)); err == nil {
		t.Error("bad magic accepted")
	}
	good, _ := NewLanes(10, 8).MarshalBinary()
	bad := append([]byte(nil), good...)
	bad[4] = 0 // width 0
	if err := l.UnmarshalBinaryBorrow(bad); err == nil {
		t.Error("zero width accepted")
	}
	if err := l.UnmarshalBinaryBorrow(good[:len(good)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
}

// Property: Lanes behaves like a []uint64 with masking, for random widths.
func TestLanesQuickAgainstSlice(t *testing.T) {
	f := func(vals []uint64, widthSeed uint8) bool {
		width := uint(widthSeed)%64 + 1
		if len(vals) == 0 {
			return true
		}
		l := NewLanes(uint64(len(vals)), width)
		mask := ^uint64(0)
		if width < 64 {
			mask = 1<<width - 1
		}
		for i, v := range vals {
			l.Set(uint64(i), v)
		}
		for i, v := range vals {
			if l.Get(uint64(i)) != v&mask {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLanesSet(b *testing.B) {
	l := NewLanes(1<<18, 13)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Set(uint64(i)&(1<<18-1), uint64(i))
	}
}

func BenchmarkLanesGet(b *testing.B) {
	l := NewLanes(1<<18, 13)
	for i := uint64(0); i < 1<<18; i++ {
		l.Set(i, i*2654435761)
	}
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += l.Get(uint64(i) & (1<<18 - 1))
	}
	_ = sink
}
