package mainstore

import "context"

// ctxStride is how many codes the kernel accumulates between context
// checks (64 Ki).
const ctxStride = 64 << 10

// Vectorized numeric aggregation kernel: accumulates count/sum of
// numeric data columns grouped by the dictionary codes of one column,
// operating directly on block-decoded codes and the dictionaries'
// backing arrays — the dictionary-encoded operator execution of §4.1
// and the SIMD-scan style of [15], portably.

// AccumNumeric adds this store's visible rows into the caller's
// accumulators. Group codes are the global chain codes of groupCol;
// the NULL group uses index len(counts)-1 (the caller sizes counts as
// Cardinality(groupCol)+1). For each data column k, colCnt[k],
// colSumI[k], colSumF[k] accumulate non-NULL count and sums, indexed
// the same way. Data columns must be numeric (INT64/DATE/BOOLEAN sum
// into colSumI, DOUBLE into colSumF). ctx is observed at every part
// and every ctxStride codes within one; its error ends the
// accumulation early.
func (s *Store) AccumNumeric(ctx context.Context, groupCol int, dataCols []int, tomb *Tombstones, snap, self uint64,
	counts []int64, colCnt, colSumI [][]int64, colSumF [][]float64) error {
	const block = 1024
	nullIdx := len(counts) - 1
	// Flatten per-column dictionary arrays into the global code space.
	ints := make([][]int64, len(dataCols))
	floats := make([][]float64, len(dataCols))
	for k, c := range dataCols {
		card := s.Cardinality(c)
		var flatI []int64
		var flatF []float64
		for _, p := range s.parts {
			i64, f64 := p.Dict(c).NumericSlices()
			if f64 != nil {
				if flatF == nil {
					flatF = make([]float64, 0, card)
				}
				flatF = append(flatF, f64...)
			} else {
				if flatI == nil {
					flatI = make([]int64, 0, card)
				}
				flatI = append(flatI, i64...)
			}
		}
		ints[k] = flatI
		floats[k] = flatF
	}
	var gbuf [block]uint32
	bufs := make([][block]uint32, len(dataCols))
	for _, p := range s.parts {
		n := p.NumRows()
		for start := 0; start < n; start += block {
			if start%ctxStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			end := start + block
			if end > n {
				end = n
			}
			p.cols[groupCol].values.DecodeBlock(start, gbuf[:end-start])
			for k := range dataCols {
				p.cols[dataCols[k]].values.DecodeBlock(start, bufs[k][:end-start])
			}
			for pos := start; pos < end; pos++ {
				if !p.visibleAt(pos, tomb, snap, self) {
					continue
				}
				g := int(gbuf[pos-start])
				if p.IsNull(pos, groupCol) {
					g = nullIdx
				}
				counts[g]++
				for k := range dataCols {
					if p.IsNull(pos, dataCols[k]) {
						continue
					}
					code := bufs[k][pos-start]
					colCnt[k][g]++
					if floats[k] != nil {
						colSumF[k][g] += floats[k][code]
					} else {
						colSumI[k][g] += ints[k][code]
					}
				}
			}
		}
	}
	return nil
}
