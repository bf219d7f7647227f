package compress

import (
	"sort"

	"repro/internal/bitpack"
)

// Sparse is dominant-value coding: the most frequent code is stored
// implicitly; only the positions and codes of the exceptions are kept.
// It wins on columns dominated by one value (status flags, default
// country, NULL-heavy attributes).
type Sparse struct {
	defaultCode uint32
	positions   []int32 // exception positions, ascending
	codes       *bitpack.Vector
	n           int
}

// NewSparse builds a sparse encoding, or returns nil when the column
// has no codes (Choose falls back to other schemes).
func NewSparse(codes []uint32, cardinality int) *Sparse {
	if len(codes) == 0 {
		return nil
	}
	freq := make(map[uint32]int)
	for _, c := range codes {
		freq[c]++
	}
	var def uint32
	best := -1
	for c, n := range freq {
		if n > best || (n == best && c < def) {
			def, best = c, n
		}
	}
	s := &Sparse{defaultCode: def, codes: bitpack.New(cardinality), n: len(codes)}
	for i, c := range codes {
		if c != def {
			s.positions = append(s.positions, int32(i))
			s.codes.Append(c)
		}
	}
	return s
}

func (s *Sparse) Len() int       { return s.n }
func (s *Sparse) Scheme() Scheme { return SchemeSparse }
func (s *Sparse) MemSize() int   { return len(s.positions)*4 + s.codes.MemSize() + 32 }

// exceptionAt returns the index into positions of the first exception
// at or after position i.
func (s *Sparse) exceptionAt(i int) int {
	return sort.Search(len(s.positions), func(j int) bool { return int(s.positions[j]) >= i })
}

func (s *Sparse) Get(i int) uint32 {
	if i < 0 || i >= s.n {
		panic("compress: sparse index out of range")
	}
	j := s.exceptionAt(i)
	if j < len(s.positions) && int(s.positions[j]) == i {
		return s.codes.Get(j)
	}
	return s.defaultCode
}

func (s *Sparse) DecodeBlock(start int, out []uint32) int {
	if start < 0 || start >= s.n || len(out) == 0 {
		return 0
	}
	n := s.n - start
	if n > len(out) {
		n = len(out)
	}
	for i := 0; i < n; i++ {
		out[i] = s.defaultCode
	}
	for j := s.exceptionAt(start); j < len(s.positions) && int(s.positions[j]) < start+n; j++ {
		out[int(s.positions[j])-start] = s.codes.Get(j)
	}
	return n
}

func (s *Sparse) ScanEqual(target uint32, from, to int, hits []int) []int {
	return s.ScanRange(target, target, from, to, hits)
}

func (s *Sparse) ScanRange(lo, hi uint32, from, to int, hits []int) []int {
	if lo > hi {
		return hits
	}
	if from < 0 {
		from = 0
	}
	if to > s.n {
		to = s.n
	}
	if from >= to {
		return hits
	}
	defMatches := s.defaultCode >= lo && s.defaultCode <= hi
	j := s.exceptionAt(from)
	if defMatches {
		// Emit every position, substituting exception verdicts.
		for p := from; p < to; p++ {
			if j < len(s.positions) && int(s.positions[j]) == p {
				if c := s.codes.Get(j); c >= lo && c <= hi {
					hits = append(hits, p)
				}
				j++
			} else {
				hits = append(hits, p)
			}
		}
		return hits
	}
	// Only exceptions can match: skip straight through them.
	for ; j < len(s.positions) && int(s.positions[j]) < to; j++ {
		if c := s.codes.Get(j); c >= lo && c <= hi {
			hits = append(hits, int(s.positions[j]))
		}
	}
	return hits
}
