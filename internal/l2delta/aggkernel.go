package l2delta

import (
	"context"

	"repro/internal/mvcc"
)

// ctxStride is how many codes the kernel accumulates between context
// checks (64 Ki): cancellation reaches a running aggregation within
// well under a millisecond, and the check vanishes in scan cost.
const ctxStride = 64 << 10

// AccumNumeric adds this generation's visible rows (up to border)
// into the caller's accumulators, grouped by the unsorted dictionary
// codes of groupCol; the NULL group uses index len(counts)-1 (the
// caller sizes counts as Dict(groupCol).Len()+1). Data columns must
// be numeric. ctx is observed on entry and every ctxStride codes; its
// error ends the accumulation early. This is the vectorized sibling
// of ScanVisibleGroupCodes (§4.1, [15]).
func (s *Store) AccumNumeric(ctx context.Context, groupCol int, dataCols []int, border int, snap, self uint64,
	counts []int64, colCnt, colSumI [][]int64, colSumF [][]float64) error {
	const block = 1024
	if border > len(s.rowIDs) {
		border = len(s.rowIDs)
	}
	nullIdx := len(counts) - 1
	ints := make([][]int64, len(dataCols))
	floats := make([][]float64, len(dataCols))
	for k, c := range dataCols {
		ints[k], floats[k] = s.cols[c].dict.NumericSlices()
	}
	gcol := s.cols[groupCol]
	var gbuf [block]uint32
	bufs := make([][block]uint32, len(dataCols))
	for start := 0; start < border; start += block {
		if start%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		end := start + block
		if end > border {
			end = border
		}
		gcol.codes.DecodeBlock(start, gbuf[:end-start])
		for k := range dataCols {
			s.cols[dataCols[k]].codes.DecodeBlock(start, bufs[k][:end-start])
		}
		for pos := start; pos < end; pos++ {
			if !mvcc.VisibleStamp(s.stamps[pos], snap, self) {
				continue
			}
			g := int(gbuf[pos-start])
			if gcol.nulls.get(pos) {
				g = nullIdx
			}
			counts[g]++
			for k := range dataCols {
				col := s.cols[dataCols[k]]
				if col.nulls.get(pos) {
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
	return nil
}
