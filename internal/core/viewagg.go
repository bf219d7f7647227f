package core

import (
	"context"
	"fmt"

	"repro/internal/budget"
	"repro/internal/l1delta"
	"repro/internal/types"
)

// NumGroup is one group of a vectorized numeric aggregation: the
// group value (Null for the NULL group), the row count, and per data
// column the non-NULL count and integer/float sums. Count, Sum, and
// Avg derive from these; Min/Max take the generic path.
type NumGroup struct {
	Key   types.Value
	Count int64
	Cnt   []int64
	SumI  []int64
	SumF  []float64
}

// aggCtxStride is how many L1 rows or folded codes the kernel handles
// between context checks, matching the L2/main kernels' 64 Ki codes.
const aggCtxStride = 64 << 10

// numGroupBytes approximates one merged group's header, map entry and
// order slot; its key and counters are charged on top.
const numGroupBytes = 96

// AggregateNumeric computes count and per-column sums of the numeric
// dataCols grouped by groupCol, using the per-stage code-level
// kernels: each stage accumulates into arrays indexed by its own
// dictionary codes (no per-row hashing or value boxing), and the few
// resulting groups are merged by value (§4.1, [15]). It runs outside
// any statement; see AggregateNumericCtx.
func (v *View) AggregateNumeric(groupCol int, dataCols []int) ([]NumGroup, error) {
	return v.AggregateNumericCtx(context.Background(), groupCol, dataCols)
}

// AggregateNumericCtx is AggregateNumeric under a statement's
// lifecycle: ctx is observed at every stage and every 64 Ki rows or
// codes within one, and each code space's accumulator arrays, like
// each merged group, are charged to ctx's budget.Meter before they
// are allocated.
func (v *View) AggregateNumericCtx(ctx context.Context, groupCol int, dataCols []int) ([]NumGroup, error) {
	schema := v.t.cfg.Schema
	for _, c := range dataCols {
		switch schema.Columns[c].Kind {
		case types.KindInt64, types.KindFloat64, types.KindDate, types.KindBool:
		default:
			return nil, fmt.Errorf("core: AggregateNumeric over non-numeric column %q", schema.Columns[c].Name)
		}
	}
	meter := budget.FromContext(ctx)
	nd := len(dataCols)
	merged := map[types.Value]*NumGroup{} // NULL keys as types.Null
	var order []*NumGroup
	fold := func(key types.Value, count int64, cnt []int64, sumI []int64, sumF []float64) error {
		g := merged[key]
		if g == nil {
			if err := meter.Reserve(numGroupBytes + budget.ValueBytes(key) + int64(3*nd)*8); err != nil {
				return err
			}
			g = &NumGroup{Key: key, Cnt: make([]int64, nd), SumI: make([]int64, nd), SumF: make([]float64, nd)}
			merged[key] = g
			order = append(order, g)
		}
		g.Count += count
		for k := 0; k < nd; k++ {
			g.Cnt[k] += cnt[k]
			g.SumI[k] += sumI[k]
			g.SumF[k] += sumF[k]
		}
		return nil
	}
	cnt := make([]int64, nd)
	sumI := make([]int64, nd)
	sumF := make([]float64, nd)

	// codeSpace runs one stage's kernel over arrays indexed by its
	// dictionary codes (the NULL group at index card): charge, then
	// allocate, the count array and per data column the non-NULL
	// count and int/float sums; accumulate; fold the groups by value.
	codeSpace := func(card int, resolve func(uint32) types.Value,
		accum func(counts []int64, colCnt, colSumI [][]int64, colSumF [][]float64) error) error {
		if err := meter.Reserve(int64(1+3*nd) * int64(card+1) * 8); err != nil {
			return err
		}
		counts := make([]int64, card+1)
		colCnt := make([][]int64, nd)
		colSumI := make([][]int64, nd)
		colSumF := make([][]float64, nd)
		for k := 0; k < nd; k++ {
			colCnt[k] = make([]int64, card+1)
			colSumI[k] = make([]int64, card+1)
			colSumF[k] = make([]float64, card+1)
		}
		if err := accum(counts, colCnt, colSumI, colSumF); err != nil {
			return err
		}
		for code, n := range counts {
			if code%aggCtxStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if n == 0 {
				continue
			}
			for k := 0; k < nd; k++ {
				cnt[k], sumI[k], sumF[k] = colCnt[k][code], colSumI[k][code], colSumF[k][code]
			}
			key := types.Null
			if code < card {
				key = resolve(uint32(code))
			}
			if err := fold(key, n, cnt, sumI, sumF); err != nil {
				return err
			}
		}
		return nil
	}

	// L1-delta: row format, accumulated straight into the merged
	// groups (the L1-delta holds few rows, so per-row fold cost is
	// irrelevant here).
	var err error
	seen := 0
	v.l1.ScanVisible(v.l1Border, v.snap, v.self, func(_ int, r *l1delta.Row) bool {
		if seen%aggCtxStride == 0 {
			if err = ctx.Err(); err != nil {
				return false
			}
		}
		seen++
		for k, c := range dataCols {
			cnt[k], sumI[k], sumF[k] = 0, 0, 0
			val := r.Values[c]
			if val.IsNull() {
				continue
			}
			cnt[k] = 1
			if val.Kind == types.KindFloat64 {
				sumF[k] = val.F
			} else {
				sumI[k] = val.I
			}
		}
		key := r.Values[groupCol]
		if key.IsNull() {
			key = types.Null
		}
		err = fold(key, 1, cnt, sumI, sumF)
		return err == nil
	})
	if err != nil {
		return nil, err
	}

	// L2-delta generations.
	for gi, g := range v.l2s {
		if v.borders[gi] == 0 {
			continue
		}
		d := g.Dict(groupCol)
		err := codeSpace(d.Len(), d.At, func(counts []int64, colCnt, colSumI [][]int64, colSumF [][]float64) error {
			return g.AccumNumeric(ctx, groupCol, dataCols, v.borders[gi], v.snap, v.self, counts, colCnt, colSumI, colSumF)
		})
		if err != nil {
			return nil, err
		}
	}

	// Main chain.
	if main := v.main; main.NumRows() > 0 {
		resolve := func(c uint32) types.Value { return main.ResolveCode(groupCol, c) }
		err := codeSpace(main.Cardinality(groupCol), resolve, func(counts []int64, colCnt, colSumI [][]int64, colSumF [][]float64) error {
			return main.AccumNumeric(ctx, groupCol, dataCols, v.tombs, v.snap, v.self, counts, colCnt, colSumI, colSumF)
		})
		if err != nil {
			return nil, err
		}
	}

	out := make([]NumGroup, len(order))
	for i, g := range order {
		out[i] = *g
	}
	return out, nil
}
