package bitpack

import (
	"fmt"
	"math/bits"
)

// Set overwrites the code at position i. The new code must fit the
// current width.
func (v *Vector) Set(i int, code uint32) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitpack: index %d out of range [0,%d)", i, v.n))
	}
	if uint8(bits.Len32(code)) > v.width {
		panic(fmt.Sprintf("bitpack: code %d does not fit width %d", code, v.width))
	}
	mask := uint64(1)<<v.width - 1
	bitPos := i * int(v.width)
	word, off := bitPos/64, uint(bitPos%64)
	v.words[word] = v.words[word]&^(mask<<off) | uint64(code)<<off
	if off+uint(v.width) > 64 {
		hi := uint(v.width) - (64 - off)
		himask := uint64(1)<<hi - 1
		v.words[word+1] = v.words[word+1]&^himask | uint64(code)>>(64-off)
	}
}

// Truncate discards all codes from position n onward.
func (v *Vector) Truncate(n int) {
	if n < 0 || n > v.n {
		panic(fmt.Sprintf("bitpack: truncate to %d out of range [0,%d]", n, v.n))
	}
	// Zero the tail so future appends OR into clean words.
	for i := n; i < v.n; i++ {
		v.Set(i, 0)
	}
	v.n = n
	if keep := n*int(v.width)/64 + 1; keep < len(v.words) {
		v.words = v.words[:keep]
	}
}

// Clone returns an independent copy.
func (v *Vector) Clone() *Vector {
	words := make([]uint64, len(v.words))
	copy(words, v.words)
	return &Vector{words: words, n: v.n, width: v.width}
}

// Words exposes the packed words.
func (v *Vector) Words() []uint64 { return v.words }

// FromWords reconstructs a vector from its packed words.
func FromWords(words []uint64, n int, width uint8) (*Vector, error) {
	if width == 0 || width > MaxWidth {
		return nil, fmt.Errorf("bitpack: width %d out of range", width)
	}
	if need := (n*int(width) + 63) / 64; len(words) < need {
		return nil, fmt.Errorf("bitpack: %d words cannot hold %d codes of width %d", len(words), n, width)
	}
	return &Vector{words: words, n: n, width: width}, nil
}
