package compress

import (
	"sort"

	"repro/internal/bitpack"
)

// RLE is run-length coding: maximal runs of equal codes are stored as
// (start position, code). Positional access binary-searches the run
// starts. RLE shines after a re-sorting merge has clustered equal
// values (§4.2).
type RLE struct {
	starts []int32 // run start positions, ascending
	codes  *bitpack.Vector
	n      int
}

// NewRLE builds a run-length encoding of codes.
func NewRLE(codes []uint32, cardinality int) *RLE {
	r := &RLE{codes: bitpack.New(cardinality), n: len(codes)}
	for i, c := range codes {
		if i == 0 || codes[i-1] != c {
			r.starts = append(r.starts, int32(i))
			r.codes.Append(c)
		}
	}
	return r
}

func (r *RLE) Len() int       { return r.n }
func (r *RLE) Scheme() Scheme { return SchemeRLE }
func (r *RLE) MemSize() int   { return len(r.starts)*4 + r.codes.MemSize() + 24 }

// run returns the index of the run containing position i.
func (r *RLE) run(i int) int {
	return sort.Search(len(r.starts), func(j int) bool { return int(r.starts[j]) > i }) - 1
}

func (r *RLE) Get(i int) uint32 {
	if i < 0 || i >= r.n {
		panic("compress: RLE index out of range")
	}
	return r.codes.Get(r.run(i))
}

// runEnd returns the exclusive end position of run j.
func (r *RLE) runEnd(j int) int {
	if j+1 < len(r.starts) {
		return int(r.starts[j+1])
	}
	return r.n
}

func (r *RLE) DecodeBlock(start int, out []uint32) int {
	if start < 0 || start >= r.n || len(out) == 0 {
		return 0
	}
	n := r.n - start
	if n > len(out) {
		n = len(out)
	}
	j := r.run(start)
	pos := start
	for pos < start+n {
		c := r.codes.Get(j)
		end := r.runEnd(j)
		if end > start+n {
			end = start + n
		}
		for ; pos < end; pos++ {
			out[pos-start] = c
		}
		j++
	}
	return n
}

func (r *RLE) ScanEqual(target uint32, from, to int, hits []int) []int {
	return r.ScanRange(target, target, from, to, hits)
}

func (r *RLE) ScanRange(lo, hi uint32, from, to int, hits []int) []int {
	if lo > hi || r.n == 0 {
		return hits
	}
	if from < 0 {
		from = 0
	}
	if to > r.n {
		to = r.n
	}
	if from >= to {
		return hits
	}
	for j := r.run(from); j < len(r.starts) && int(r.starts[j]) < to; j++ {
		if c := r.codes.Get(j); c < lo || c > hi {
			continue
		}
		s, e := int(r.starts[j]), r.runEnd(j)
		if s < from {
			s = from
		}
		if e > to {
			e = to
		}
		for p := s; p < e; p++ {
			hits = append(hits, p)
		}
	}
	return hits
}
