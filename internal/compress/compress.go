// Package compress implements the value-index compression schemes of
// the main store. On top of dictionary encoding, "a combination of
// different compression techniques — ranging from simple run-length
// coding schemes to more complex compression techniques — are applied
// to further reduce the main memory footprint" (paper §3, citing
// [9, 10]). The package offers:
//
//   - Plain: bit-packed codes (the baseline every scheme must beat),
//   - RLE: run-length coding for sorted or clustered columns,
//   - Sparse: dominant-value coding with an exception list,
//   - Cluster: fixed-size blocks, single-value blocks stored once.
//
// Choose picks the smallest encoding for a column, the cost-based
// decision the re-sorting merge relies on (§4.2).
package compress

import (
	"fmt"

	"repro/internal/bitpack"
)

// Scheme identifies a compression scheme.
type Scheme uint8

const (
	// SchemePlain stores every code bit-packed.
	SchemePlain Scheme = iota
	// SchemeRLE stores (start-position, code) runs.
	SchemeRLE
	// SchemeSparse stores the dominant code implicitly plus exceptions.
	SchemeSparse
	// SchemeCluster stores equal-valued fixed-size blocks once.
	SchemeCluster
)

func (s Scheme) String() string {
	switch s {
	case SchemePlain:
		return "plain"
	case SchemeRLE:
		return "rle"
	case SchemeSparse:
		return "sparse"
	case SchemeCluster:
		return "cluster"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// Encoding is a read-only compressed sequence of dictionary codes.
// All schemes support positional access (the column store's
// positional addressing, §4.2) and predicate scans over code ranges.
type Encoding interface {
	// Len returns the number of codes.
	Len() int
	// Get returns the code at position i.
	Get(i int) uint32
	// DecodeBlock fills out with codes starting at start, returning
	// the count decoded (vectorized access, §3.1).
	DecodeBlock(start int, out []uint32) int
	// ScanEqual appends positions in [from,to) whose code equals
	// target.
	ScanEqual(target uint32, from, to int, hits []int) []int
	// ScanRange appends positions in [from,to) whose code lies in
	// [lo,hi].
	ScanRange(lo, hi uint32, from, to int, hits []int) []int
	// MemSize approximates the heap footprint in bytes.
	MemSize() int
	// Scheme identifies the encoding.
	Scheme() Scheme
}

// Choose returns the smallest encoding of codes, trying every scheme.
// cardinality is the dictionary size (for bit widths).
func Choose(codes []uint32, cardinality int) Encoding {
	best := Encoding(NewPlain(codes, cardinality))
	if r := NewRLE(codes, cardinality); r.MemSize() < best.MemSize() {
		best = r
	}
	if s := NewSparse(codes, cardinality); s != nil && s.MemSize() < best.MemSize() {
		best = s
	}
	if c := NewCluster(codes, cardinality); c.MemSize() < best.MemSize() {
		best = c
	}
	return best
}

// Plain is the uncompressed (but bit-packed) scheme.
type Plain struct {
	v *bitpack.Vector
}

// NewPlain builds a plain encoding.
func NewPlain(codes []uint32, cardinality int) *Plain {
	v := bitpack.New(cardinality)
	v.AppendAll(codes)
	return &Plain{v: v}
}

// Vector exposes the underlying bit-packed vector, which the main
// store's batch scan runs its interval kernel on.
func (p *Plain) Vector() *bitpack.Vector { return p.v }

func (p *Plain) Len() int         { return p.v.Len() }
func (p *Plain) Get(i int) uint32 { return p.v.Get(i) }
func (p *Plain) MemSize() int     { return p.v.MemSize() }
func (p *Plain) Scheme() Scheme   { return SchemePlain }
func (p *Plain) DecodeBlock(start int, out []uint32) int {
	return p.v.DecodeBlock(start, out)
}
func (p *Plain) ScanEqual(target uint32, from, to int, hits []int) []int {
	return p.v.ScanEqual(target, from, to, hits)
}
func (p *Plain) ScanRange(lo, hi uint32, from, to int, hits []int) []int {
	return p.v.ScanRange(lo, hi, from, to, hits)
}
