package mainstore

import (
	"repro/internal/bitpack"
	"repro/internal/compress"
	"repro/internal/types"
	"repro/internal/vec"
)

// rangeFilter is one pushed-down range predicate resolved to global
// code intervals per part. The sorted dictionaries map a value range
// to one contiguous code interval each; part pi's value index may
// reference the intervals of parts 0..pi (§4.3), so act[pi] holds the
// applicable interval set for that part. The per-row check is a few
// integer comparisons on the undecoded dictionary code.
type rangeFilter struct {
	col int
	act [][]codeInterval
}

// codeInterval is a contiguous global-code interval.
type codeInterval struct{ lo, hi uint32 }

// BatchScan is the main store's producer for the vectorized read
// path: it walks the part chain, block-decodes the compressed value
// indexes, applies tombstone/MVCC visibility and code-interval
// filters per position, and materializes the requested columns
// through a lazy global-code → value cache.
type BatchScan struct {
	s       *Store
	cols    []int
	tomb    *Tombstones
	snap    uint64
	self    uint64
	filters []rangeFilter
	empty   bool
	part    int
	pos     int
	// rangeEnd, when >= 0, restricts the cursor to positions
	// [pos, rangeEnd) of the current part only — the morsel shape of
	// the parallel scan. The cursor then never advances to the next
	// part; SetRange re-aims it.
	rangeEnd int
	caches   [][]types.Value
	cached   [][]bool
	fbuf     []uint32
	cbufs    [][]uint32
	keep     []int
	selbuf   []int32
	ivbuf    []bitpack.Interval

	// Decode-cache accounting across all columns: a hit reuses a
	// cached value, a miss resolves a code through the dictionaries
	// (including all resolutions of uncached high-cardinality
	// columns). Plain counters: the cursor is single-threaded.
	cacheHits   uint64
	cacheMisses uint64
}

// CacheStats returns the cursor's cumulative decode-cache hit/miss
// counts (the engine's observability layer harvests the deltas).
func (c *BatchScan) CacheStats() (hits, misses uint64) {
	return c.cacheHits, c.cacheMisses
}

// cacheEntryBytes approximates one decode-cache slot: the boxed value
// plus its cached flag (strings are shared with the dictionary, so
// the header is the resident cost).
const cacheEntryBytes = 48

// CacheBytes returns the resident size of the cursor's decode caches,
// so statement memory budgets can account for the cardinality-sized
// allocations NewBatchScan made up front.
func (c *BatchScan) CacheBytes() int64 {
	var n int64
	for _, cache := range c.caches {
		n += int64(len(cache)) * cacheEntryBytes
	}
	return n
}

// cacheMaxCard bounds the per-column decode cache: above this
// cardinality most codes appear only a handful of times, so the
// cardinality-sized allocation (and its zeroing) costs more than
// resolving codes directly.
const cacheMaxCard = 1 << 16

// NewBatchScan returns a cursor over the visible rows of the chain
// producing the listed columns. Call FilterRange before the first
// Fill to push predicates down to dictionary codes.
func (s *Store) NewBatchScan(cols []int, tomb *Tombstones, snap, self uint64) *BatchScan {
	c := &BatchScan{s: s, cols: cols, tomb: tomb, snap: snap, self: self, rangeEnd: -1}
	c.caches = make([][]types.Value, len(cols))
	c.cached = make([][]bool, len(cols))
	for i, ci := range cols {
		if card := s.Cardinality(ci); card <= cacheMaxCard {
			c.caches[i] = make([]types.Value, card)
			c.cached[i] = make([]bool, card)
		}
	}
	c.cbufs = make([][]uint32, len(cols))
	for i := range c.cbufs {
		c.cbufs[i] = make([]uint32, vec.DefaultBatchSize)
	}
	return c
}

// FilterRange pushes down `col BETWEEN lo AND hi` (NULL bound =
// unbounded), resolving the value range in every part's sorted
// dictionary to global code intervals — the split-main range scan of
// Fig. 10: "the ranges are resolved in both dictionaries and the range
// scan is performed on both structures … the scan is broken into two
// partial ranges". Multiple calls conjoin.
func (c *BatchScan) FilterRange(col int, lo, hi types.Value, loInc, hiInc bool) {
	intervals := make([]codeInterval, len(c.s.parts))
	valid := make([]bool, len(c.s.parts))
	for pi, p := range c.s.parts {
		pc := p.cols[col]
		l, h, ok := pc.dict.RangeCodes(lo, hi, loInc, hiInc)
		if ok {
			intervals[pi] = codeInterval{pc.offset + l, pc.offset + h}
			valid[pi] = true
		}
	}
	f := rangeFilter{col: col, act: make([][]codeInterval, len(c.s.parts))}
	any := false
	for pi := range c.s.parts {
		for j := 0; j <= pi; j++ {
			if valid[j] {
				f.act[pi] = append(f.act[pi], intervals[j])
			}
		}
		if len(f.act[pi]) > 0 {
			any = true
		}
	}
	if !any {
		c.empty = true
		return
	}
	c.filters = append(c.filters, f)
}

// SetRange re-aims the cursor at positions [start, end) of the given
// part, keeping its resolved filters and decode caches. The parallel
// scan reuses one cursor per worker across that worker's main-store
// morsels.
func (c *BatchScan) SetRange(part, start, end int) {
	c.part, c.pos, c.rangeEnd = part, start, end
}

// matches tests a global code (at part pi, position pos) against the
// filter's intervals, excluding the NULL placeholder code 0.
func (f *rangeFilter) matches(p *Part, pi, pos int, code uint32) bool {
	for _, iv := range f.act[pi] {
		if code >= iv.lo && code <= iv.hi {
			return !(code == 0 && p.IsNull(pos, f.col))
		}
	}
	return false
}

// Fill appends up to room rows to out (one vec.Col per requested
// column) and reports how many were appended and whether the cursor
// may produce more.
func (c *BatchScan) Fill(out []*vec.Col, room int) (int, bool) {
	if c.empty {
		return 0, false
	}
	n := 0
	for c.part < len(c.s.parts) {
		p := c.s.parts[c.part]
		rows := p.NumRows()
		if c.rangeEnd >= 0 && c.rangeEnd < rows {
			rows = c.rangeEnd
		}
		for c.pos < rows && n < room {
			end := c.pos + vec.DefaultBatchSize
			if end > rows {
				end = rows
			}
			blk := end - c.pos

			// Pass 1: visibility + code-interval predicates. The first
			// filter runs as a bit-packed interval kernel when the value
			// index is plain-packed, writing candidate positions straight
			// into a selection buffer; remaining filters test candidates
			// by point lookups on the undecoded codes.
			c.keep = c.keep[:0]
			passed := c.keep
			if len(c.filters) > 0 {
				f0 := &c.filters[0]
				ivs := f0.act[c.part]
				if len(ivs) == 0 {
					// No interval reaches this part: nothing matches.
					c.pos = end
					continue
				}
				enc := p.cols[f0.col].values
				if plain, ok := enc.(*compress.Plain); ok {
					c.ivbuf = c.ivbuf[:0]
					zero := false
					for _, iv := range ivs {
						c.ivbuf = append(c.ivbuf, bitpack.Interval{Lo: iv.lo, Hi: iv.hi})
						if iv.lo == 0 {
							zero = true
						}
					}
					vecCodes := plain.Vector()
					c.selbuf = vecCodes.ScanIntervalsSel(c.ivbuf, c.pos, end, c.selbuf[:0])
					for _, p32 := range c.selbuf {
						pos := int(p32)
						// The kernel cannot see NULLs: global code 0 is the
						// NULL placeholder, so re-exclude it when an
						// interval admits 0.
						if zero && p.IsNull(pos, f0.col) && vecCodes.Get(pos) == 0 {
							continue
						}
						if p.visibleAt(pos, c.tomb, c.snap, c.self) {
							passed = append(passed, pos)
						}
					}
				} else {
					if cap(c.fbuf) < blk {
						c.fbuf = make([]uint32, vec.DefaultBatchSize)
					}
					enc.DecodeBlock(c.pos, c.fbuf[:blk])
					for i := 0; i < blk; i++ {
						pos := c.pos + i
						if f0.matches(p, c.part, pos, c.fbuf[i]) &&
							p.visibleAt(pos, c.tomb, c.snap, c.self) {
							passed = append(passed, pos)
						}
					}
				}
				rest := c.filters[1:]
				for fi := range rest {
					f := &rest[fi]
					enc := p.cols[f.col].values
					live := passed[:0]
					for _, pos := range passed {
						if f.matches(p, c.part, pos, enc.Get(pos)) {
							live = append(live, pos)
						}
					}
					passed = live
				}
			} else {
				for pos := c.pos; pos < end; pos++ {
					if p.visibleAt(pos, c.tomb, c.snap, c.self) {
						passed = append(passed, pos)
					}
				}
			}
			c.keep = passed

			// Pass 2: materialize the requested columns for survivors.
			take := c.keep
			if n+len(take) > room {
				take = take[:room-n]
			}
			if len(take) > 0 {
				for i, ci := range c.cols {
					pc := p.cols[ci]
					buf := c.cbufs[i]
					pc.values.DecodeBlock(c.pos, buf[:blk])
					o := out[i]
					cache, seen := c.caches[i], c.cached[i]
					for _, pos := range take {
						if p.IsNull(pos, ci) {
							o.AppendNull()
							continue
						}
						code := buf[pos-c.pos]
						if cache == nil {
							c.cacheMisses++
							o.Append(c.s.ResolveCode(ci, code))
							continue
						}
						if !seen[code] {
							c.cacheMisses++
							cache[code] = c.s.ResolveCode(ci, code)
							seen[code] = true
						} else {
							c.cacheHits++
						}
						o.Append(cache[code])
					}
				}
				n += len(take)
			}
			if len(take) < len(c.keep) {
				// Out of room mid-block: resume at the first unemitted
				// position (its block is re-decoded next call).
				c.pos = c.keep[len(take)]
				return n, true
			}
			c.pos = end
		}
		if c.pos >= rows {
			if c.rangeEnd >= 0 {
				// Ranged cursor: the morsel is exhausted; never walk into
				// the next part.
				return n, false
			}
			c.part++
			c.pos = 0
		} else {
			break
		}
	}
	return n, c.part < len(c.s.parts)
}
