package dict

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestUnsortedGetOrAddAssignsArrivalOrder(t *testing.T) {
	u := NewUnsorted(types.KindString)
	cities := []string{"Los Gatos", "Daily City", "Los Gatos", "Campbell", "Daily City"}
	wantCodes := []uint32{0, 1, 0, 2, 1}
	for i, c := range cities {
		if got := u.GetOrAdd(types.Str(c)); got != wantCodes[i] {
			t.Errorf("GetOrAdd(%q) = %d, want %d", c, got, wantCodes[i])
		}
	}
	if u.Len() != 3 {
		t.Errorf("Len = %d, want 3", u.Len())
	}
	if v := u.At(2); v.S != "Campbell" {
		t.Errorf("At(2) = %q", v.S)
	}
}

func TestUnsortedLookup(t *testing.T) {
	u := NewUnsorted(types.KindInt64)
	u.GetOrAdd(types.Int(10))
	u.GetOrAdd(types.Int(20))
	if c, ok := u.Lookup(types.Int(20)); !ok || c != 1 {
		t.Errorf("Lookup(20) = %d,%v", c, ok)
	}
	if _, ok := u.Lookup(types.Int(30)); ok {
		t.Error("Lookup(30) should miss")
	}
}

func TestUnsortedKinds(t *testing.T) {
	for _, k := range []types.Kind{types.KindInt64, types.KindFloat64, types.KindString, types.KindDate, types.KindBool} {
		u := NewUnsorted(k)
		var v types.Value
		switch k {
		case types.KindFloat64:
			v = types.Float(3.5)
		case types.KindString:
			v = types.Str("x")
		default:
			v = types.Value{Kind: k, I: 1}
		}
		c := u.GetOrAdd(v)
		if got := u.At(c); !types.Equal(got, v) {
			t.Errorf("%v: At(GetOrAdd(v)) = %v, want %v", k, got, v)
		}
		if u.MemSize() <= 0 {
			t.Errorf("%v: MemSize not positive", k)
		}
	}
}

func TestUnsortedRejectsNullAndWrongKind(t *testing.T) {
	u := NewUnsorted(types.KindInt64)
	for _, v := range []types.Value{types.Null, types.Str("x")} {
		func() {
			defer func() { recover() }()
			u.GetOrAdd(v)
			t.Errorf("GetOrAdd(%v) should panic", v)
		}()
	}
}

func TestSortedPermutation(t *testing.T) {
	u := NewUnsorted(types.KindString)
	for _, s := range []string{"pear", "apple", "zebra", "mango"} {
		u.GetOrAdd(types.Str(s))
	}
	perm := u.SortedPermutation()
	want := []string{"apple", "mango", "pear", "zebra"}
	for rank, code := range perm {
		if got := u.At(code).S; got != want[rank] {
			t.Errorf("rank %d = %q, want %q", rank, got, want[rank])
		}
	}
}

func TestUnsortedRangeCodes(t *testing.T) {
	u := NewUnsorted(types.KindInt64)
	for i := int64(0); i < 10; i++ {
		u.GetOrAdd(types.Int(i * 10))
	}
	codes := u.RangeCodes(types.Int(20), types.Int(50), true, true)
	if len(codes) != 4 {
		t.Fatalf("codes = %v", codes)
	}
	codes = u.RangeCodes(types.Int(20), types.Int(50), false, false)
	if len(codes) != 2 {
		t.Fatalf("exclusive codes = %v", codes)
	}
	codes = u.RangeCodes(types.Null, types.Int(15), true, true)
	if len(codes) != 2 { // 0, 10
		t.Fatalf("unbounded-lo codes = %v", codes)
	}
	codes = u.RangeCodes(types.Int(85), types.Null, true, true)
	if len(codes) != 1 { // 90
		t.Fatalf("unbounded-hi codes = %v", codes)
	}
}

func sortedFromStrings(ss ...string) *Sorted {
	vals := make([]types.Value, len(ss))
	for i, s := range ss {
		vals[i] = types.Str(s)
	}
	return NewSortedFromValues(types.KindString, vals)
}

func TestSortedBasics(t *testing.T) {
	s := sortedFromStrings("Berlin", "Palo Alto", "Seoul", "Walldorf")
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i, want := range []string{"Berlin", "Palo Alto", "Seoul", "Walldorf"} {
		if got := s.At(uint32(i)).S; got != want {
			t.Errorf("At(%d) = %q, want %q", i, got, want)
		}
	}
	if c, ok := s.Lookup(types.Str("Seoul")); !ok || c != 2 {
		t.Errorf("Lookup(Seoul) = %d,%v", c, ok)
	}
	if _, ok := s.Lookup(types.Str("Paris")); ok {
		t.Error("Lookup(Paris) should miss")
	}
	if max, ok := s.Max(); !ok || max.S != "Walldorf" {
		t.Errorf("Max = %v,%v", max, ok)
	}
}

func TestSortedFrontCodingManyBlocks(t *testing.T) {
	// >16 strings with heavy shared prefixes to cross block borders.
	var ss []string
	for i := 0; i < 100; i++ {
		ss = append(ss, fmt.Sprintf("customer_record_%05d", i))
	}
	s := sortedFromStrings(ss...)
	for i, want := range ss {
		if got := s.At(uint32(i)).S; got != want {
			t.Fatalf("At(%d) = %q, want %q", i, got, want)
		}
		if c, ok := s.Lookup(types.Str(want)); !ok || c != uint32(i) {
			t.Fatalf("Lookup(%q) = %d,%v", want, c, ok)
		}
	}
	// Front coding must actually compress a shared-prefix dictionary.
	flat := 0
	for _, x := range ss {
		flat += len(x) + 16
	}
	if s.MemSize() >= flat {
		t.Errorf("front-coded size %d not smaller than flat %d", s.MemSize(), flat)
	}
}

func TestSortedRejectsUnsortedInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted input should panic")
		}
	}()
	NewSortedFromValues(types.KindInt64, []types.Value{types.Int(2), types.Int(1)})
}

func TestSortedRangeCodes(t *testing.T) {
	vals := make([]types.Value, 0, 10)
	for i := int64(0); i < 10; i++ {
		vals = append(vals, types.Int(i*10))
	}
	s := NewSortedFromValues(types.KindInt64, vals)
	lo, hi, ok := s.RangeCodes(types.Int(20), types.Int(50), true, true)
	if !ok || lo != 2 || hi != 5 {
		t.Fatalf("range = %d..%d,%v", lo, hi, ok)
	}
	lo, hi, ok = s.RangeCodes(types.Int(25), types.Int(45), true, true)
	if !ok || lo != 3 || hi != 4 {
		t.Fatalf("between-values range = %d..%d,%v", lo, hi, ok)
	}
	if _, _, ok = s.RangeCodes(types.Int(41), types.Int(49), true, true); ok {
		t.Error("empty range should report !ok")
	}
	lo, hi, ok = s.RangeCodes(types.Null, types.Null, true, true)
	if !ok || lo != 0 || hi != 9 {
		t.Fatalf("unbounded range = %d..%d,%v", lo, hi, ok)
	}
	// exclusive bounds
	lo, hi, ok = s.RangeCodes(types.Int(20), types.Int(50), false, false)
	if !ok || lo != 3 || hi != 4 {
		t.Fatalf("exclusive range = %d..%d,%v", lo, hi, ok)
	}
}

func TestMergeGeneralPaperExample(t *testing.T) {
	// Fig. 7: main {Daily City, Los Gatos, San Jose} sorted; delta
	// arrival order {Los Gatos, Campbell, San Francisco}.
	main := sortedFromStrings("Daily City", "Los Gatos", "San Jose")
	delta := NewUnsorted(types.KindString)
	delta.GetOrAdd(types.Str("Los Gatos"))
	delta.GetOrAdd(types.Str("Campbell"))
	delta.GetOrAdd(types.Str("San Francisco"))

	res := Merge(main, delta)
	if res.Path != FastPathNone {
		t.Fatalf("path = %v", res.Path)
	}
	want := []string{"Campbell", "Daily City", "Los Gatos", "San Francisco", "San Jose"}
	if res.Dict.Len() != len(want) {
		t.Fatalf("merged dict has %d entries", res.Dict.Len())
	}
	for i, w := range want {
		if got := res.Dict.At(uint32(i)).S; got != w {
			t.Errorf("merged[%d] = %q, want %q", i, got, w)
		}
	}
	// Old main codes 0,1,2 -> 1,2,4 ; delta codes 0,1,2 -> 2,0,3.
	for i, w := range []uint32{1, 2, 4} {
		if res.MainMap[i] != w {
			t.Errorf("MainMap[%d] = %d, want %d", i, res.MainMap[i], w)
		}
	}
	for i, w := range []uint32{2, 0, 3} {
		if res.DeltaMap[i] != w {
			t.Errorf("DeltaMap[%d] = %d, want %d", i, res.DeltaMap[i], w)
		}
	}
}

func TestMergeSubsetFastPath(t *testing.T) {
	main := sortedFromStrings("a", "b", "c")
	delta := NewUnsorted(types.KindString)
	delta.GetOrAdd(types.Str("c"))
	delta.GetOrAdd(types.Str("a"))
	res := Merge(main, delta)
	if res.Path != FastPathSubset || !res.MainStable {
		t.Fatalf("path = %v stable=%v", res.Path, res.MainStable)
	}
	if res.Dict != main {
		t.Error("subset path should reuse the main dictionary")
	}
	if res.DeltaMap[0] != 2 || res.DeltaMap[1] != 0 {
		t.Errorf("DeltaMap = %v", res.DeltaMap)
	}
}

func TestMergeAppendFastPath(t *testing.T) {
	// Increasing timestamps scenario.
	vals := []types.Value{types.Int(100), types.Int(200)}
	main := NewSortedFromValues(types.KindInt64, vals)
	delta := NewUnsorted(types.KindInt64)
	delta.GetOrAdd(types.Int(400))
	delta.GetOrAdd(types.Int(300))
	res := Merge(main, delta)
	if res.Path != FastPathAppend || !res.MainStable {
		t.Fatalf("path = %v stable=%v", res.Path, res.MainStable)
	}
	if res.Dict.Len() != 4 {
		t.Fatalf("dict has %d entries", res.Dict.Len())
	}
	if res.DeltaMap[0] != 3 || res.DeltaMap[1] != 2 {
		t.Errorf("DeltaMap = %v", res.DeltaMap)
	}
	// Old main codes still resolve to the same values.
	if res.Dict.At(0).I != 100 || res.Dict.At(1).I != 200 {
		t.Error("main codes not stable")
	}
}

func TestMergeEmptyMain(t *testing.T) {
	delta := NewUnsorted(types.KindInt64)
	delta.GetOrAdd(types.Int(5))
	delta.GetOrAdd(types.Int(1))
	res := Merge(nil, delta)
	if res.Dict.Len() != 2 || res.Dict.At(0).I != 1 {
		t.Fatalf("dict has %d entries", res.Dict.Len())
	}
	if res.DeltaMap[0] != 1 || res.DeltaMap[1] != 0 {
		t.Errorf("DeltaMap = %v", res.DeltaMap)
	}
}

func TestMergeEmptyDelta(t *testing.T) {
	main := sortedFromStrings("a")
	res := Merge(main, NewUnsorted(types.KindString))
	if res.Path != FastPathSubset || res.Dict != main {
		t.Fatalf("empty delta: path=%v", res.Path)
	}
}

// TestMergeQuick checks, for random inputs, that the merged dictionary
// is sorted and that both mapping tables point at the right values.
func TestMergeQuick(t *testing.T) {
	f := func(mainSeed, deltaSeed int64) bool {
		rm := rand.New(rand.NewSource(mainSeed))
		rd := rand.New(rand.NewSource(deltaSeed))
		uniq := map[int64]bool{}
		for i := 0; i < rm.Intn(50); i++ {
			uniq[rm.Int63n(100)] = true
		}
		var sortedVals []int64
		for v := range uniq {
			sortedVals = append(sortedVals, v)
		}
		sort.Slice(sortedVals, func(a, b int) bool { return sortedVals[a] < sortedVals[b] })
		var main *Sorted
		if len(sortedVals) > 0 {
			vals := make([]types.Value, len(sortedVals))
			for i, v := range sortedVals {
				vals[i] = types.Int(v)
			}
			main = NewSortedFromValues(types.KindInt64, vals)
		}
		delta := NewUnsorted(types.KindInt64)
		for i := 0; i < rd.Intn(50); i++ {
			delta.GetOrAdd(types.Int(rd.Int63n(100)))
		}
		res := Merge(main, delta)
		// Sorted and strictly ascending.
		for i := 1; i < res.Dict.Len(); i++ {
			if types.Compare(res.Dict.At(uint32(i-1)), res.Dict.At(uint32(i))) >= 0 {
				return false
			}
		}
		// Delta mapping correctness.
		for c := 0; c < delta.Len(); c++ {
			if !types.Equal(res.Dict.At(res.DeltaMap[c]), delta.At(uint32(c))) {
				return false
			}
		}
		// Main mapping correctness.
		if main != nil {
			for c := 0; c < main.Len(); c++ {
				newCode := uint32(c)
				if !res.MainStable {
					newCode = res.MainMap[c]
				}
				if !types.Equal(res.Dict.At(newCode), main.At(uint32(c))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeSorted(t *testing.T) {
	a := sortedFromStrings("b", "d", "f")
	b := sortedFromStrings("a", "d", "z")
	m, aMap, bMap := MergeSorted(a, b)
	want := []string{"a", "b", "d", "f", "z"}
	for i, w := range want {
		if got := m.At(uint32(i)).S; got != w {
			t.Fatalf("merged[%d] = %q, want %q", i, got, w)
		}
	}
	for i := 0; i < a.Len(); i++ {
		if !types.Equal(m.At(aMap[i]), a.At(uint32(i))) {
			t.Errorf("aMap[%d] wrong", i)
		}
	}
	for i := 0; i < b.Len(); i++ {
		if !types.Equal(m.At(bMap[i]), b.At(uint32(i))) {
			t.Errorf("bMap[%d] wrong", i)
		}
	}
}

func TestLowerBound(t *testing.T) {
	s := NewSortedFromValues(types.KindInt64,
		[]types.Value{types.Int(10), types.Int(20), types.Int(30)})
	cases := []struct {
		v    int64
		inc  bool
		want uint32
	}{
		{5, true, 0}, {10, true, 0}, {10, false, 1},
		{15, true, 1}, {30, true, 2}, {30, false, 3}, {35, true, 3},
	}
	for _, c := range cases {
		if got := s.LowerBound(types.Int(c.v), c.inc); got != c.want {
			t.Errorf("LowerBound(%d,%v) = %d, want %d", c.v, c.inc, got, c.want)
		}
	}
}
