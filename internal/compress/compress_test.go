package compress

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// refScanRange is the trivially correct scan all encodings must match.
func refScanRange(codes []uint32, lo, hi uint32, from, to int) []int {
	var hits []int
	if from < 0 {
		from = 0
	}
	if to > len(codes) {
		to = len(codes)
	}
	for i := from; i < to; i++ {
		if codes[i] >= lo && codes[i] <= hi {
			hits = append(hits, i)
		}
	}
	return hits
}

func encodings(codes []uint32, card int) map[string]Encoding {
	m := map[string]Encoding{
		"plain":   NewPlain(codes, card),
		"rle":     NewRLE(codes, card),
		"cluster": NewCluster(codes, card),
	}
	if s := NewSparse(codes, card); s != nil {
		m["sparse"] = s
	}
	return m
}

func checkEncoding(t *testing.T, name string, e Encoding, codes []uint32) {
	t.Helper()
	if e.Len() != len(codes) {
		t.Fatalf("%s: Len = %d, want %d", name, e.Len(), len(codes))
	}
	for i, c := range codes {
		if got := e.Get(i); got != c {
			t.Fatalf("%s: Get(%d) = %d, want %d", name, i, got, c)
		}
	}
	// Block decode across odd boundaries.
	buf := make([]uint32, 100)
	for start := 0; start < len(codes); start += 73 {
		n := e.DecodeBlock(start, buf)
		for i := 0; i < n; i++ {
			if buf[i] != codes[start+i] {
				t.Fatalf("%s: DecodeBlock(%d)[%d] = %d, want %d", name, start, i, buf[i], codes[start+i])
			}
		}
	}
	// Scans against the reference on a few windows.
	windows := [][2]int{{0, len(codes)}, {7, len(codes) / 2}, {len(codes) / 3, len(codes)}}
	for _, w := range windows {
		for _, r := range [][2]uint32{{0, 0}, {1, 3}, {5, 100}, {2, 2}} {
			want := refScanRange(codes, r[0], r[1], w[0], w[1])
			got := e.ScanRange(r[0], r[1], w[0], w[1], nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ScanRange(%v,%v) = %v, want %v", name, r, w, got, want)
			}
			wantEq := refScanRange(codes, r[0], r[0], w[0], w[1])
			gotEq := e.ScanEqual(r[0], w[0], w[1], nil)
			if !reflect.DeepEqual(gotEq, wantEq) {
				t.Fatalf("%s: ScanEqual(%d,%v) = %v, want %v", name, r[0], w, gotEq, wantEq)
			}
		}
	}
}

func TestAllSchemesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	codes := make([]uint32, 3000)
	for i := range codes {
		codes[i] = uint32(rng.Intn(8))
	}
	for name, e := range encodings(codes, 8) {
		checkEncoding(t, name, e, codes)
	}
}

func TestAllSchemesSorted(t *testing.T) {
	codes := make([]uint32, 4000)
	for i := range codes {
		codes[i] = uint32(i / 500)
	}
	for name, e := range encodings(codes, 8) {
		checkEncoding(t, name, e, codes)
	}
	// Sorted data: RLE must be dramatically smaller than plain.
	rle, plain := NewRLE(codes, 8), NewPlain(codes, 8)
	if rle.MemSize()*10 > plain.MemSize() {
		t.Errorf("RLE %dB not ≪ plain %dB on sorted data", rle.MemSize(), plain.MemSize())
	}
	if len(rle.starts) != 8 {
		t.Errorf("runs = %d, want 8", len(rle.starts))
	}
}

func TestAllSchemesDominant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	codes := make([]uint32, 5000)
	for i := range codes {
		if rng.Intn(100) == 0 {
			codes[i] = uint32(1 + rng.Intn(7))
		}
	}
	for name, e := range encodings(codes, 8) {
		checkEncoding(t, name, e, codes)
	}
	sp, plain := NewSparse(codes, 8), NewPlain(codes, 8)
	if sp.MemSize()*5 > plain.MemSize() {
		t.Errorf("sparse %dB not ≪ plain %dB on dominant data", sp.MemSize(), plain.MemSize())
	}
}

func TestClusterLocallyUniform(t *testing.T) {
	// Blocks of 1024 equal values but globally non-monotonic: cluster
	// territory.
	var codes []uint32
	vals := []uint32{5, 1, 5, 3, 1, 7}
	for _, v := range vals {
		for i := 0; i < 1024; i++ {
			codes = append(codes, v)
		}
	}
	for name, e := range encodings(codes, 8) {
		checkEncoding(t, name, e, codes)
	}
	cl, plain := NewCluster(codes, 8), NewPlain(codes, 8)
	if cl.MemSize()*10 > plain.MemSize() {
		t.Errorf("cluster %dB not ≪ plain %dB on block-uniform data", cl.MemSize(), plain.MemSize())
	}
}

func TestChoosePicksExpectedScheme(t *testing.T) {
	sorted := make([]uint32, 4096)
	for i := range sorted {
		sorted[i] = uint32(i / 512)
	}
	if got := Choose(sorted, 8).Scheme(); got != SchemeRLE {
		t.Errorf("sorted data chose %v, want rle", got)
	}

	dominant := make([]uint32, 4096)
	dominant[100] = 3
	dominant[2000] = 5
	got := Choose(dominant, 8).Scheme()
	if got != SchemeSparse && got != SchemeRLE {
		t.Errorf("dominant data chose %v, want sparse or rle", got)
	}

	rng := rand.New(rand.NewSource(3))
	random := make([]uint32, 4096)
	for i := range random {
		random[i] = uint32(rng.Intn(200))
	}
	if got := Choose(random, 200).Scheme(); got != SchemePlain {
		t.Errorf("random data chose %v, want plain", got)
	}
}

func TestChooseNeverBiggerThanPlain(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		codes := make([]uint32, int(n)%2000)
		for i := range codes {
			codes[i] = uint32(rng.Intn(16))
		}
		e := Choose(codes, 16)
		if e.MemSize() > NewPlain(codes, 16).MemSize() {
			return false
		}
		for i, c := range codes {
			if e.Get(i) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEmptyColumn(t *testing.T) {
	for name, e := range map[string]Encoding{
		"plain":   NewPlain(nil, 1),
		"rle":     NewRLE(nil, 1),
		"cluster": NewCluster(nil, 1),
	} {
		if e.Len() != 0 {
			t.Errorf("%s: empty Len = %d", name, e.Len())
		}
		if hits := e.ScanRange(0, 10, 0, 0, nil); len(hits) != 0 {
			t.Errorf("%s: scan of empty = %v", name, hits)
		}
		if n := e.DecodeBlock(0, make([]uint32, 4)); n != 0 {
			t.Errorf("%s: decode of empty = %d", name, n)
		}
	}
	if NewSparse(nil, 1) != nil {
		t.Error("NewSparse(nil) should be nil")
	}
	if Choose(nil, 1).Len() != 0 {
		t.Error("Choose(nil) should produce an empty encoding")
	}
}

func TestSparseTieBreakDeterministic(t *testing.T) {
	codes := []uint32{1, 2, 1, 2}
	a, b := NewSparse(codes, 4).defaultCode, NewSparse(codes, 4).defaultCode
	if a != b {
		t.Error("sparse default code not deterministic on frequency ties")
	}
	if a != 1 {
		t.Errorf("tie should pick smallest code, got %d", a)
	}
}
