package bitpack

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestWidthFor(t *testing.T) {
	cases := []struct {
		card int
		want uint8
	}{
		{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{256, 8}, {257, 9}, {1 << 20, 20}, {1<<20 + 1, 21},
	}
	for _, c := range cases {
		if got := WidthFor(c.card); got != c.want {
			t.Errorf("WidthFor(%d) = %d, want %d", c.card, got, c.want)
		}
	}
}

func TestAppendGetRoundtripAllWidths(t *testing.T) {
	for width := uint8(1); width <= MaxWidth; width++ {
		v := NewWidth(width)
		max := uint32(1)<<width - 1
		var want []uint32
		rng := rand.New(rand.NewSource(int64(width)))
		for i := 0; i < 200; i++ {
			c := uint32(rng.Uint64()) & max
			v.Append(c)
			want = append(want, c)
		}
		if v.Len() != len(want) {
			t.Fatalf("width %d: len %d", width, v.Len())
		}
		if v.width != width {
			t.Fatalf("width changed: %d -> %d", width, v.width)
		}
		for i, w := range want {
			if got := v.Get(i); got != w {
				t.Fatalf("width %d: Get(%d) = %d, want %d", width, i, got, w)
			}
		}
	}
}

func TestAppendWidens(t *testing.T) {
	v := New(2) // width 1
	v.Append(0)
	v.Append(1)
	v.Append(1000) // needs 10 bits
	if v.width != 10 {
		t.Fatalf("width = %d, want 10", v.width)
	}
	for i, want := range []uint32{0, 1, 1000} {
		if got := v.Get(i); got != want {
			t.Errorf("Get(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestAppendAllWidensOnce(t *testing.T) {
	v := New(2)
	codes := []uint32{1, 0, 7, 300, 2}
	v.AppendAll(codes)
	if v.width != 9 {
		t.Fatalf("width = %d, want 9", v.width)
	}
	for i, want := range codes {
		if got := v.Get(i); got != want {
			t.Errorf("Get(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestSet(t *testing.T) {
	v := NewWidth(13) // cross-word boundaries
	for i := 0; i < 100; i++ {
		v.Append(uint32(i))
	}
	for i := 0; i < 100; i += 7 {
		v.Set(i, uint32(8000+i))
	}
	for i := 0; i < 100; i++ {
		want := uint32(i)
		if i%7 == 0 {
			want = uint32(8000 + i)
		}
		if got := v.Get(i); got != want {
			t.Fatalf("Get(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestSetRejectsWideCode(t *testing.T) {
	v := NewWidth(3)
	v.Append(1)
	defer func() {
		if recover() == nil {
			t.Error("Set with oversized code should panic")
		}
	}()
	v.Set(0, 8)
}

func TestDecodeBlock(t *testing.T) {
	v := NewWidth(11)
	for i := 0; i < 1000; i++ {
		v.Append(uint32(i * 2 % 2048))
	}
	buf := make([]uint32, 128)
	got := 0
	for start := 0; ; {
		n := v.DecodeBlock(start, buf)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			if buf[i] != uint32((start+i)*2%2048) {
				t.Fatalf("block decode mismatch at %d", start+i)
			}
		}
		start += n
		got += n
	}
	if got != 1000 {
		t.Fatalf("decoded %d codes, want 1000", got)
	}
}

func TestScanEqual(t *testing.T) {
	v := NewWidth(4)
	data := []uint32{3, 1, 3, 7, 3, 0, 3}
	v.AppendAll(data)
	hits := v.ScanEqual(3, 0, v.Len(), nil)
	want := []int{0, 2, 4, 6}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v", hits)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hits = %v, want %v", hits, want)
		}
	}
	// sub-range
	hits = v.ScanEqual(3, 1, 5, nil)
	if len(hits) != 2 || hits[0] != 2 || hits[1] != 4 {
		t.Fatalf("sub-range hits = %v", hits)
	}
}

func TestScanRange(t *testing.T) {
	v := NewWidth(8)
	for i := 0; i < 256; i++ {
		v.Append(uint32(i))
	}
	hits := v.ScanRange(10, 20, 0, v.Len(), nil)
	if len(hits) != 11 || hits[0] != 10 || hits[10] != 20 {
		t.Fatalf("hits = %v", hits)
	}
	if got := v.ScanRange(20, 10, 0, v.Len(), nil); len(got) != 0 {
		t.Fatalf("inverted range should be empty, got %v", got)
	}
}

func TestTruncateThenAppend(t *testing.T) {
	v := NewWidth(5)
	for i := 0; i < 64; i++ {
		v.Append(uint32(i % 32))
	}
	v.Truncate(10)
	if v.Len() != 10 {
		t.Fatalf("len = %d", v.Len())
	}
	v.Append(31)
	if got := v.Get(10); got != 31 {
		t.Fatalf("append after truncate: got %d", got)
	}
	for i := 0; i < 10; i++ {
		if got := v.Get(i); got != uint32(i) {
			t.Fatalf("prefix corrupted at %d: %d", i, got)
		}
	}
}

func TestTruncateEmpty(t *testing.T) {
	v := NewWidth(7)
	v.Truncate(0) // must not panic on empty vector
	v.Append(99)
	if v.Get(0) != 99 {
		t.Fatal("append after empty truncate")
	}
}

func TestClone(t *testing.T) {
	v := NewWidth(6)
	v.AppendAll([]uint32{1, 2, 3})
	c := v.Clone()
	c.Append(4)
	c.Set(0, 9)
	if v.Len() != 3 || v.Get(0) != 1 {
		t.Error("clone aliases original")
	}
}

func TestFromWordsRoundtrip(t *testing.T) {
	v := NewWidth(17)
	for i := 0; i < 500; i++ {
		v.Append(uint32(i * 131071 % (1 << 17)))
	}
	r, err := FromWords(v.Words(), v.Len(), v.width)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if r.Get(i) != v.Get(i) {
			t.Fatalf("mismatch at %d", i)
		}
	}
	if _, err := FromWords([]uint64{0}, 100, 17); err == nil {
		t.Error("undersized words accepted")
	}
	if _, err := FromWords(nil, 0, 0); err == nil {
		t.Error("zero width accepted")
	}
}

func TestQuickRoundtrip(t *testing.T) {
	f := func(codes []uint32) bool {
		v := NewWidth(1)
		for _, c := range codes {
			v.Append(c)
		}
		for i, c := range codes {
			if v.Get(i) != c {
				return false
			}
		}
		return v.Len() == len(codes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGetOutOfRangePanics(t *testing.T) {
	v := NewWidth(4)
	v.Append(1)
	for _, i := range []int{-1, 1} {
		func() {
			defer func() { recover() }()
			v.Get(i)
			t.Errorf("Get(%d) should panic", i)
		}()
	}
}

func BenchmarkAppend(b *testing.B) {
	v := NewWidth(20)
	for i := 0; i < b.N; i++ {
		v.Append(uint32(i) & (1<<20 - 1))
	}
}

func BenchmarkGet(b *testing.B) {
	v := NewWidth(20)
	for i := 0; i < 1<<16; i++ {
		v.Append(uint32(i))
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += v.Get(i & (1<<16 - 1))
	}
	_ = sink
}

func BenchmarkDecodeBlock(b *testing.B) {
	v := NewWidth(20)
	for i := 0; i < 1<<16; i++ {
		v.Append(uint32(i))
	}
	buf := make([]uint32, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.DecodeBlock((i*1024)&(1<<16-1), buf)
	}
}

// TestScanKernelsMatchReference cross-checks the unrolled selection
// kernels against the naive per-element reference at many widths,
// block offsets, and word-boundary-straddling ranges. The membership
// set is capped at 4 Ki codes (a full set at width 32 would be 2^31
// entries), and every fourth code is planted below the cap so the
// in-range branch of ScanMemberSel runs at every width.
func TestScanKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range []uint8{1, 3, 7, 8, 13, 17, 21, 32} {
		v := NewWidth(width)
		max := uint32(1)<<width - 1
		allowLen := min(int(max)/2+1, 1<<12)
		n := 1000 + rng.Intn(500)
		for i := 0; i < n; i++ {
			if i%4 == 0 {
				v.Append(uint32(rng.Intn(allowLen)))
			} else {
				v.Append(rng.Uint32() & max)
			}
		}
		selected := 0
		for trial := 0; trial < 20; trial++ {
			start := rng.Intn(n)
			end := start + rng.Intn(n-start+1)
			lo := rng.Uint32() & max
			hi := lo + rng.Uint32()&max/4
			ivs := []Interval{{Lo: lo, Hi: hi}}
			if trial%3 == 0 {
				ivs = append(ivs, Interval{Lo: 0, Hi: max / 16})
			}
			got := v.ScanIntervalsSel(ivs, start, end, nil)
			var want []int32
			for i := start; i < end; i++ {
				c := v.Get(i)
				for _, iv := range ivs {
					if c >= iv.Lo && c <= iv.Hi {
						want = append(want, int32(i))
						break
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("width=%d trial=%d ScanIntervalsSel [%d,%d): got %v want %v", width, trial, start, end, got, want)
			}

			allow := make([]bool, allowLen)
			for i := range allow {
				allow[i] = rng.Intn(3) == 0
			}
			gotM := v.ScanMemberSel(allow, start, end, nil)
			var wantM []int32
			for i := start; i < end; i++ {
				c := v.Get(i)
				if int(c) < len(allow) && allow[c] {
					wantM = append(wantM, int32(i))
				}
			}
			if !reflect.DeepEqual(gotM, wantM) {
				t.Fatalf("width=%d trial=%d ScanMemberSel [%d,%d): got %v want %v", width, trial, start, end, gotM, wantM)
			}
			selected += len(wantM)
		}
		if selected == 0 {
			t.Fatalf("width=%d: the membership reference never selected a row", width)
		}
	}
}

// TestDecodeBlockUnrolledMatchesGet pins the unrolled decode against
// random access at awkward widths and offsets (including the exact
// tail and a FromWords-reconstructed vector with a tight word count).
func TestDecodeBlockUnrolledMatchesGet(t *testing.T) {
	for _, width := range []uint8{1, 5, 11, 16, 19, 31, 32} {
		v := NewWidth(width)
		max := uint32(1)<<width - 1
		for i := 0; i < 777; i++ {
			v.Append(uint32(i*2654435761) & max)
		}
		rt, err := FromWords(append([]uint64(nil), v.Words()...), v.Len(), width)
		if err != nil {
			t.Fatal(err)
		}
		for _, vec := range []*Vector{v, rt} {
			for _, start := range []int{0, 1, 63, 64, 100, 770, 776, 777, 1000} {
				out := make([]uint32, 130)
				got := vec.DecodeBlock(start, out)
				wantN := vec.Len() - start
				if wantN < 0 {
					wantN = 0
				}
				if wantN > len(out) {
					wantN = len(out)
				}
				if got != wantN {
					t.Fatalf("width=%d start=%d: decoded %d, want %d", width, start, got, wantN)
				}
				for i := 0; i < got; i++ {
					if out[i] != vec.Get(start+i) {
						t.Fatalf("width=%d start=%d pos=%d: %d != %d", width, start, i, out[i], vec.Get(start+i))
					}
				}
			}
		}
	}
}

func BenchmarkScanIntervalsSel(b *testing.B) {
	v := NewWidth(20)
	for i := 0; i < 1<<16; i++ {
		v.Append(uint32(i) & (1<<20 - 1))
	}
	ivs := []Interval{{Lo: 100, Hi: 5000}}
	sel := make([]int32, 0, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel = v.ScanIntervalsSel(ivs, 0, v.Len(), sel[:0])
	}
}
