// Package bitpack implements the bit-packed integer vectors that the
// unified table uses for dictionary-encoded value indexes: with C
// distinct values in a column, every code is stored in ceil(log2(C))
// bits, tightly packed into 64-bit words (paper §3, "stored in a
// bit-packed manner", and [15]).
//
// The package provides an append-only Vector with random access,
// block-wise (vectorized) decoding for scans, and predicate scans
// that operate directly on the packed representation.
package bitpack

import (
	"fmt"
	"math/bits"
)

// Vector is an append-only sequence of unsigned integer codes packed
// at a fixed bit width. When an appended code exceeds the current
// width the vector transparently repacks itself at a wider width —
// the "same or an increased number of bits" re-encoding the paper
// describes for merges (§4.1).
//
// A Vector is not safe for concurrent mutation; concurrent readers
// are safe once writers have stopped (the unified table swaps whole
// structures instead of mutating shared ones).
type Vector struct {
	words []uint64
	n     int
	width uint8 // bits per code, 1..32
}

// MaxWidth is the widest supported code, enough for 2^32 distinct
// dictionary entries per column.
const MaxWidth = 32

// WidthFor returns the number of bits needed to represent codes in
// [0, cardinality-1]; at least 1 so that an all-equal column still
// stores explicit codes.
func WidthFor(cardinality int) uint8 {
	if cardinality <= 1 {
		return 1
	}
	w := uint8(bits.Len64(uint64(cardinality - 1)))
	if w > MaxWidth {
		panic(fmt.Sprintf("bitpack: cardinality %d exceeds %d-bit codes", cardinality, MaxWidth))
	}
	return w
}

// New returns an empty vector sized for the given expected
// cardinality.
func New(cardinality int) *Vector {
	return NewWidth(WidthFor(cardinality))
}

// NewWidth returns an empty vector with an explicit bit width.
func NewWidth(width uint8) *Vector {
	if width == 0 || width > MaxWidth {
		panic(fmt.Sprintf("bitpack: width %d out of range", width))
	}
	return &Vector{width: width}
}

// Len returns the number of codes stored.
func (v *Vector) Len() int { return v.n }

// MemSize returns the approximate heap footprint in bytes.
func (v *Vector) MemSize() int { return len(v.words)*8 + 24 }

// Append adds one code, widening the vector first if necessary.
func (v *Vector) Append(code uint32) {
	if w := WidthFor(int(code) + 1); w > v.width {
		v.Repack(w)
	}
	v.appendRaw(uint64(code))
}

// AppendAll appends a slice of codes. It widens at most once, to the
// width required by the largest code, so bulk loads never repack per
// element. This is the merge fast path: the number of tuples to move
// is known in advance (§3.1).
func (v *Vector) AppendAll(codes []uint32) {
	var max uint32
	for _, c := range codes {
		if c > max {
			max = c
		}
	}
	if w := WidthFor(int(max) + 1); w > v.width {
		v.Repack(w)
	}
	need := (v.n+len(codes))*int(v.width)/64 + 1
	if cap(v.words) < need {
		grown := make([]uint64, len(v.words), need+need/2)
		copy(grown, v.words)
		v.words = grown
	}
	for _, c := range codes {
		v.appendRaw(uint64(c))
	}
}

func (v *Vector) appendRaw(code uint64) {
	bitPos := v.n * int(v.width)
	word, off := bitPos/64, uint(bitPos%64)
	for word+2 > len(v.words) {
		v.words = append(v.words, 0)
	}
	v.words[word] |= code << off
	if off+uint(v.width) > 64 {
		v.words[word+1] |= code >> (64 - off)
	}
	v.n++
}

// Get returns the code at position i.
func (v *Vector) Get(i int) uint32 {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitpack: index %d out of range [0,%d)", i, v.n))
	}
	return v.get(i)
}

func (v *Vector) get(i int) uint32 {
	bitPos := i * int(v.width)
	word, off := bitPos/64, uint(bitPos%64)
	val := v.words[word] >> off
	if off+uint(v.width) > 64 {
		val |= v.words[word+1] << (64 - off)
	}
	return uint32(val & (1<<v.width - 1))
}

// Repack rewrites the vector at a new, wider width.
func (v *Vector) Repack(width uint8) {
	if width <= v.width {
		return
	}
	nv := NewWidth(width)
	nv.words = make([]uint64, 0, v.n*int(width)/64+2)
	for i := 0; i < v.n; i++ {
		nv.appendRaw(uint64(v.get(i)))
	}
	*v = *nv
}

// DecodeBlock decodes codes [start, start+len(out)) into out and
// returns the number decoded (short at the tail). Operators use this
// for vectorized, block-at-a-time processing (§3.1). The loop keeps a
// running bit cursor and is unrolled 4-wide so the per-code work is a
// shift, a conditional carry, and a mask — no per-element
// multiplication.
func (v *Vector) DecodeBlock(start int, out []uint32) int {
	if start < 0 {
		panic("bitpack: negative start")
	}
	n := v.n - start
	if n <= 0 {
		return 0
	}
	if n > len(out) {
		n = len(out)
	}
	width := uint(v.width)
	mask := uint64(1)<<width - 1
	words := v.words
	bitPos := start * int(width)
	i := 0
	for ; i+4 <= n; i += 4 {
		w0, o0 := bitPos>>6, uint(bitPos&63)
		c0 := words[w0] >> o0
		if o0+width > 64 {
			c0 |= words[w0+1] << (64 - o0)
		}
		out[i] = uint32(c0 & mask)
		bitPos += int(width)

		w1, o1 := bitPos>>6, uint(bitPos&63)
		c1 := words[w1] >> o1
		if o1+width > 64 {
			c1 |= words[w1+1] << (64 - o1)
		}
		out[i+1] = uint32(c1 & mask)
		bitPos += int(width)

		w2, o2 := bitPos>>6, uint(bitPos&63)
		c2 := words[w2] >> o2
		if o2+width > 64 {
			c2 |= words[w2+1] << (64 - o2)
		}
		out[i+2] = uint32(c2 & mask)
		bitPos += int(width)

		w3, o3 := bitPos>>6, uint(bitPos&63)
		c3 := words[w3] >> o3
		if o3+width > 64 {
			c3 |= words[w3+1] << (64 - o3)
		}
		out[i+3] = uint32(c3 & mask)
		bitPos += int(width)
	}
	for ; i < n; i++ {
		w, o := bitPos>>6, uint(bitPos&63)
		c := words[w] >> o
		if o+width > 64 {
			c |= words[w+1] << (64 - o)
		}
		out[i] = uint32(c & mask)
		bitPos += int(width)
	}
	return n
}

// Interval is one inclusive code interval [Lo, Hi]. Sorted-dictionary
// range predicates resolve to intervals of the global code space; the
// scan kernels below test packed codes against them without decoding
// into an intermediate buffer.
type Interval struct {
	Lo, Hi uint32
}

// ScanIntervalsSel appends to sel the positions in [start, end) whose
// code lies in any of the intervals — the tight per-morsel kernel of
// the parallel scan path: codes are extracted straight from the packed
// words with a running bit cursor (unrolled 4-wide for the common
// single-interval case) and survivors are written directly as
// selection-vector entries.
func (v *Vector) ScanIntervalsSel(ivs []Interval, start, end int, sel []int32) []int32 {
	if start < 0 {
		start = 0
	}
	if end > v.n {
		end = v.n
	}
	if start >= end || len(ivs) == 0 {
		return sel
	}
	width := uint(v.width)
	mask := uint64(1)<<width - 1
	words := v.words
	bitPos := start * int(width)
	if len(ivs) == 1 {
		lo, hi := ivs[0].Lo, ivs[0].Hi
		i := start
		for ; i+4 <= end; i += 4 {
			w0, o0 := bitPos>>6, uint(bitPos&63)
			c0 := words[w0] >> o0
			if o0+width > 64 {
				c0 |= words[w0+1] << (64 - o0)
			}
			if c := uint32(c0 & mask); c >= lo && c <= hi {
				sel = append(sel, int32(i))
			}
			bitPos += int(width)

			w1, o1 := bitPos>>6, uint(bitPos&63)
			c1 := words[w1] >> o1
			if o1+width > 64 {
				c1 |= words[w1+1] << (64 - o1)
			}
			if c := uint32(c1 & mask); c >= lo && c <= hi {
				sel = append(sel, int32(i+1))
			}
			bitPos += int(width)

			w2, o2 := bitPos>>6, uint(bitPos&63)
			c2 := words[w2] >> o2
			if o2+width > 64 {
				c2 |= words[w2+1] << (64 - o2)
			}
			if c := uint32(c2 & mask); c >= lo && c <= hi {
				sel = append(sel, int32(i+2))
			}
			bitPos += int(width)

			w3, o3 := bitPos>>6, uint(bitPos&63)
			c3 := words[w3] >> o3
			if o3+width > 64 {
				c3 |= words[w3+1] << (64 - o3)
			}
			if c := uint32(c3 & mask); c >= lo && c <= hi {
				sel = append(sel, int32(i+3))
			}
			bitPos += int(width)
		}
		for ; i < end; i++ {
			w, o := bitPos>>6, uint(bitPos&63)
			c := words[w] >> o
			if o+width > 64 {
				c |= words[w+1] << (64 - o)
			}
			if cc := uint32(c & mask); cc >= lo && cc <= hi {
				sel = append(sel, int32(i))
			}
			bitPos += int(width)
		}
		return sel
	}
	for i := start; i < end; i++ {
		w, o := bitPos>>6, uint(bitPos&63)
		c := words[w] >> o
		if o+width > 64 {
			c |= words[w+1] << (64 - o)
		}
		code := uint32(c & mask)
		for _, iv := range ivs {
			if code >= iv.Lo && code <= iv.Hi {
				sel = append(sel, int32(i))
				break
			}
		}
		bitPos += int(width)
	}
	return sel
}

// ScanMemberSel appends to sel the positions in [start, end) whose
// code is marked in allow — the unsorted-dictionary (membership set)
// counterpart of ScanIntervalsSel, used by the L2-delta where a value
// range resolves to a code set rather than an interval. Codes at or
// beyond len(allow) never match.
func (v *Vector) ScanMemberSel(allow []bool, start, end int, sel []int32) []int32 {
	if start < 0 {
		start = 0
	}
	if end > v.n {
		end = v.n
	}
	if start >= end {
		return sel
	}
	width := uint(v.width)
	mask := uint64(1)<<width - 1
	words := v.words
	bitPos := start * int(width)
	na := uint32(len(allow))
	i := start
	for ; i+4 <= end; i += 4 {
		w0, o0 := bitPos>>6, uint(bitPos&63)
		c0 := words[w0] >> o0
		if o0+width > 64 {
			c0 |= words[w0+1] << (64 - o0)
		}
		if c := uint32(c0 & mask); c < na && allow[c] {
			sel = append(sel, int32(i))
		}
		bitPos += int(width)

		w1, o1 := bitPos>>6, uint(bitPos&63)
		c1 := words[w1] >> o1
		if o1+width > 64 {
			c1 |= words[w1+1] << (64 - o1)
		}
		if c := uint32(c1 & mask); c < na && allow[c] {
			sel = append(sel, int32(i+1))
		}
		bitPos += int(width)

		w2, o2 := bitPos>>6, uint(bitPos&63)
		c2 := words[w2] >> o2
		if o2+width > 64 {
			c2 |= words[w2+1] << (64 - o2)
		}
		if c := uint32(c2 & mask); c < na && allow[c] {
			sel = append(sel, int32(i+2))
		}
		bitPos += int(width)

		w3, o3 := bitPos>>6, uint(bitPos&63)
		c3 := words[w3] >> o3
		if o3+width > 64 {
			c3 |= words[w3+1] << (64 - o3)
		}
		if c := uint32(c3 & mask); c < na && allow[c] {
			sel = append(sel, int32(i+3))
		}
		bitPos += int(width)
	}
	for ; i < end; i++ {
		w, o := bitPos>>6, uint(bitPos&63)
		c := words[w] >> o
		if o+width > 64 {
			c |= words[w+1] << (64 - o)
		}
		if cc := uint32(c & mask); cc < na && allow[cc] {
			sel = append(sel, int32(i))
		}
		bitPos += int(width)
	}
	return sel
}

// ScanEqual appends to hits the positions in [from, to) whose code
// equals target, scanning the packed words directly.
func (v *Vector) ScanEqual(target uint32, from, to int, hits []int) []int {
	if from < 0 {
		from = 0
	}
	if to > v.n {
		to = v.n
	}
	for i := from; i < to; i++ {
		if v.get(i) == target {
			hits = append(hits, i)
		}
	}
	return hits
}

// ScanRange appends to hits the positions in [from, to) whose code c
// satisfies lo <= c <= hi. Sorted-dictionary range predicates compile
// to exactly this code-range scan (§4.3, Fig. 10).
func (v *Vector) ScanRange(lo, hi uint32, from, to int, hits []int) []int {
	if lo > hi {
		return hits
	}
	if from < 0 {
		from = 0
	}
	if to > v.n {
		to = v.n
	}
	for i := from; i < to; i++ {
		if c := v.get(i); c >= lo && c <= hi {
			hits = append(hits, i)
		}
	}
	return hits
}
