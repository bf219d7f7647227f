package dict

import (
	"fmt"
	"sort"

	"repro/internal/types"
)

// frontBlock is the front-coding (prefix-compression) block size for
// string dictionaries: the first string of each block is stored in
// full, the remainder as (shared-prefix length, suffix) pairs — the
// paper's "dictionary is always compressed using a variety of
// prefix-coding schemes" (§3).
const frontBlock = 16

// Sorted is the main-store dictionary: values in strictly ascending
// order so that code comparison equals value comparison, enabling
// operators to work directly on dictionary-encoded columns (§4.1,
// "the sort order … is the base for special operators working
// directly on dictionary encoded columns").
type Sorted struct {
	kind types.Kind

	ints   []int64
	floats []float64

	// Front-coded string storage.
	heads    []string // first string of each block, stored in full
	prefixes []uint16 // shared-prefix length with block head
	suffixes []string // remainder after the shared prefix
	n        int      // total entries (strings only)
}

// NewSortedFromValues builds a sorted dictionary from values that are
// already in strictly ascending order (no duplicates). It panics on
// unsorted input: callers are the merge paths, which construct sorted
// runs by design.
func NewSortedFromValues(kind types.Kind, values []types.Value) *Sorted {
	s := &Sorted{kind: kind}
	var prev types.Value
	for i, v := range values {
		if v.IsNull() || v.Kind != kind {
			panic(fmt.Sprintf("dict: bad value %v for sorted %v dictionary", v, kind))
		}
		if i > 0 && types.Compare(prev, v) >= 0 {
			panic("dict: NewSortedFromValues input not strictly ascending")
		}
		prev = v
		s.append(v)
	}
	return s
}

func (s *Sorted) append(v types.Value) {
	switch s.kind {
	case types.KindString:
		if s.n%frontBlock == 0 {
			s.heads = append(s.heads, v.S)
			s.prefixes = append(s.prefixes, 0)
			s.suffixes = append(s.suffixes, "")
		} else {
			head := s.heads[len(s.heads)-1]
			p := sharedPrefix(head, v.S)
			s.prefixes = append(s.prefixes, uint16(p))
			s.suffixes = append(s.suffixes, v.S[p:])
		}
		s.n++
	case types.KindFloat64:
		s.floats = append(s.floats, v.F)
	default:
		s.ints = append(s.ints, v.I)
	}
}

func sharedPrefix(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n > 65535 {
		n = 65535
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Kind returns the column kind.
func (s *Sorted) Kind() types.Kind { return s.kind }

// Len returns the number of distinct values.
func (s *Sorted) Len() int {
	switch s.kind {
	case types.KindString:
		return s.n
	case types.KindFloat64:
		return len(s.floats)
	default:
		return len(s.ints)
	}
}

// At returns the value at code c, reconstructing front-coded strings.
func (s *Sorted) At(c uint32) types.Value {
	switch s.kind {
	case types.KindString:
		i := int(c)
		if i%frontBlock == 0 {
			return types.Str(s.heads[i/frontBlock])
		}
		head := s.heads[i/frontBlock]
		return types.Str(head[:s.prefixes[i]] + s.suffixes[i])
	case types.KindFloat64:
		return types.Float(s.floats[c])
	default:
		return types.Value{Kind: s.kind, I: s.ints[c]}
	}
}

// atString is At for string dictionaries without the Value wrapper.
func (s *Sorted) atString(i int) string {
	if i%frontBlock == 0 {
		return s.heads[i/frontBlock]
	}
	head := s.heads[i/frontBlock]
	p := int(s.prefixes[i])
	if s.suffixes[i] == "" {
		return head[:p]
	}
	return head[:p] + s.suffixes[i]
}

// Lookup returns the code of v and whether it is present, by binary
// search — "a point access is resolved within the … dictionary"
// (§4.3).
func (s *Sorted) Lookup(v types.Value) (uint32, bool) {
	if v.IsNull() || v.Kind != s.kind {
		return 0, false
	}
	switch s.kind {
	case types.KindString:
		i := sort.Search(s.n, func(i int) bool { return s.atString(i) >= v.S })
		if i < s.n && s.atString(i) == v.S {
			return uint32(i), true
		}
	case types.KindFloat64:
		i := sort.SearchFloat64s(s.floats, v.F)
		if i < len(s.floats) && s.floats[i] == v.F {
			return uint32(i), true
		}
	default:
		i := sort.Search(len(s.ints), func(i int) bool { return s.ints[i] >= v.I })
		if i < len(s.ints) && s.ints[i] == v.I {
			return uint32(i), true
		}
	}
	return 0, false
}

// LowerBound returns the smallest code whose value is >= v (or == v
// when inclusive is false, the smallest code strictly greater).
func (s *Sorted) LowerBound(v types.Value, inclusive bool) uint32 {
	n := s.Len()
	i := sort.Search(n, func(i int) bool {
		cmp := types.Compare(s.At(uint32(i)), v)
		if inclusive {
			return cmp >= 0
		}
		return cmp > 0
	})
	return uint32(i)
}

// RangeCodes resolves a value range [lo, hi] (NULL bound = unbounded)
// to the corresponding contiguous code range [loCode, hiCode]. ok is
// false when the range is empty. Because the dictionary is sorted,
// range predicates on the main store reduce to one code-range scan
// (§4.3, Fig. 10).
func (s *Sorted) RangeCodes(lo, hi types.Value, loInc, hiInc bool) (loCode, hiCode uint32, ok bool) {
	n := s.Len()
	if n == 0 {
		return 0, 0, false
	}
	var l uint32
	if !lo.IsNull() {
		l = s.LowerBound(lo, loInc)
	}
	h := uint32(n) // exclusive
	if !hi.IsNull() {
		h = s.LowerBound(hi, !hiInc)
	}
	if l >= h {
		return 0, 0, false
	}
	return l, h - 1, true
}

// Max returns the largest value in the dictionary; ok is false when empty.
func (s *Sorted) Max() (types.Value, bool) {
	n := s.Len()
	if n == 0 {
		return types.Null, false
	}
	return s.At(uint32(n - 1)), true
}

// MemSize approximates the heap footprint in bytes — with front
// coding this is the compressed size the main store reports (Fig. 11).
func (s *Sorted) MemSize() int {
	switch s.kind {
	case types.KindString:
		b := 48
		for _, h := range s.heads {
			b += len(h) + 16
		}
		for _, sf := range s.suffixes {
			b += len(sf) + 16
		}
		b += len(s.prefixes) * 2
		return b
	case types.KindFloat64:
		return len(s.floats)*8 + 48
	default:
		return len(s.ints)*8 + 48
	}
}

// NumericSlices exposes the backing arrays of numeric dictionaries
// (ints covers INT64/DATE/BOOLEAN); both are nil for string
// dictionaries. Vectorized aggregation kernels index them directly by
// code instead of boxing values (§4.1, [15]).
func (s *Sorted) NumericSlices() (ints []int64, floats []float64) {
	return s.ints, s.floats
}
