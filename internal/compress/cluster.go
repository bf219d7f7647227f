package compress

import (
	"repro/internal/bitpack"
)

// clusterBlock is the fixed block size of the cluster encoding.
const clusterBlock = 1024

// Cluster is block-wise coding: the column is cut into fixed blocks;
// a block whose codes are all equal is stored as that single code,
// any other block is stored bit-packed. Cluster coding captures
// locally sorted data that RLE's global runs miss ([10]).
type Cluster struct {
	single []uint64 // per block: code<<1|1 if single-valued, else offset<<1 into packed
	packed *bitpack.Vector
	n      int
}

// NewCluster builds a cluster encoding of codes.
func NewCluster(codes []uint32, cardinality int) *Cluster {
	c := &Cluster{packed: bitpack.New(cardinality), n: len(codes)}
	for b := 0; b < len(codes); b += clusterBlock {
		end := b + clusterBlock
		if end > len(codes) {
			end = len(codes)
		}
		uniform := true
		for i := b + 1; i < end; i++ {
			if codes[i] != codes[b] {
				uniform = false
				break
			}
		}
		if uniform {
			c.single = append(c.single, uint64(codes[b])<<1|1)
		} else {
			c.single = append(c.single, uint64(c.packed.Len())<<1)
			c.packed.AppendAll(codes[b:end])
		}
	}
	return c
}

func (c *Cluster) Len() int       { return c.n }
func (c *Cluster) Scheme() Scheme { return SchemeCluster }
func (c *Cluster) MemSize() int   { return len(c.single)*8 + c.packed.MemSize() + 24 }

func (c *Cluster) Get(i int) uint32 {
	if i < 0 || i >= c.n {
		panic("compress: cluster index out of range")
	}
	e := c.single[i/clusterBlock]
	if e&1 == 1 {
		return uint32(e >> 1)
	}
	return c.packed.Get(int(e>>1) + i%clusterBlock)
}

func (c *Cluster) DecodeBlock(start int, out []uint32) int {
	if start < 0 || start >= c.n || len(out) == 0 {
		return 0
	}
	n := c.n - start
	if n > len(out) {
		n = len(out)
	}
	for i := 0; i < n; i++ {
		out[i] = c.Get(start + i)
	}
	return n
}

func (c *Cluster) ScanEqual(target uint32, from, to int, hits []int) []int {
	return c.ScanRange(target, target, from, to, hits)
}

func (c *Cluster) ScanRange(lo, hi uint32, from, to int, hits []int) []int {
	if lo > hi {
		return hits
	}
	if from < 0 {
		from = 0
	}
	if to > c.n {
		to = c.n
	}
	for b := from / clusterBlock * clusterBlock; b < to; b += clusterBlock {
		end := b + clusterBlock
		if end > c.n {
			end = c.n
		}
		s, e := b, end
		if s < from {
			s = from
		}
		if e > to {
			e = to
		}
		entry := c.single[b/clusterBlock]
		if entry&1 == 1 {
			// Uniform block: match or skip wholesale.
			if code := uint32(entry >> 1); code >= lo && code <= hi {
				for p := s; p < e; p++ {
					hits = append(hits, p)
				}
			}
			continue
		}
		off := int(entry >> 1)
		for p := s; p < e; p++ {
			if code := c.packed.Get(off + p - b); code >= lo && code <= hi {
				hits = append(hits, p)
			}
		}
	}
	return hits
}
