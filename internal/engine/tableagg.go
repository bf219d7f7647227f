package engine

import (
	"context"
	"sort"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/mvcc"
	"repro/internal/types"
	"repro/internal/vec"
)

// TableAggregate fuses an unfiltered unified-table scan with
// grouping on one column: every stage accumulates into arrays indexed
// by its own dictionary codes, with no intermediate row
// materialization and no per-row hashing, and the few groups merge by
// value at the end — dictionary-encoded aggregation (§4.1) over the
// scan-friendly main store (§3, §5). The calc executor compiles every
// Aggregate(Table) with one group column and no pushed predicate to
// this operator; all other shapes run as BatchHashAggregate.
type TableAggregate struct {
	Table *core.Table
	Txn   *mvcc.Txn
	AsOf  uint64
	// Group and Aggs reference the table's original column ordinals.
	Group int
	Aggs  []Agg
	// Ctx, when non-nil, cancels the aggregation inside its kernels
	// and carries the statement's budget.Meter, which is charged
	// before accumulator state is allocated.
	Ctx context.Context
	// Stats, when non-nil, collects the aggregate's actuals; ScanStats
	// receives the fused-away scan node's numbers (rows read from the
	// table before grouping), since no scan operator exists to report
	// them.
	Stats     *OpStats
	ScanStats *OpStats

	out BatchValues
	// scanned counts the table rows the fused drain read.
	scanned uint64
}

// ctxCheckStride bounds how many rows the code-grouped drain
// processes between context checks: frequent enough that
// cancellation reaches a running statement in microseconds, rare
// enough to vanish in scan cost.
const ctxCheckStride = 1024

// Open implements BatchIterator: it runs the whole aggregation; Next
// then replays the (few) group rows as batches.
func (a *TableAggregate) Open() error {
	if a.Stats == nil && a.ScanStats == nil {
		return a.open()
	}
	t0 := time.Now()
	err := a.open()
	a.Stats.AddWall(time.Since(t0))
	// The fused drain has no scan operator; report the rows it read
	// against the plan's table node (single worker, no morsels).
	a.ScanStats.SetScan(core.ScanStats{Rows: a.scanned, Workers: 1})
	a.ScanStats.AddWall(time.Since(t0))
	if err == nil {
		a.Stats.AddOut(len(a.out.Rows))
	}
	return err
}

func (a *TableAggregate) open() error {
	ctx := a.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var v *core.View
	if a.AsOf != 0 {
		v = a.Table.AsOf(a.AsOf)
	} else {
		v = a.Table.View(a.Txn)
	}
	defer v.Close()

	var rows [][]types.Value
	var err error
	if a.numericOnly() {
		// Fully vectorized: per-stage kernels accumulate counts and
		// sums indexed by dictionary codes, touching only the decoded
		// code blocks and the dictionaries' numeric backing arrays
		// (§4.1, [15]).
		rows, err = a.numericGrouped(ctx, v)
	} else {
		// MIN/MAX or non-numeric inputs: aggregate states in arrays
		// indexed by the group column's codes, one per code space.
		rows, err = a.groupedByCode(ctx, v)
	}
	if err != nil {
		return err
	}
	a.out = BatchValues{Rows: rows}
	return a.out.Open()
}

// numericOnly reports whether every aggregate derives from count and
// sum over a numeric column (Count, Sum, Avg).
func (a *TableAggregate) numericOnly() bool {
	schema := a.Table.Schema()
	for _, spec := range a.Aggs {
		switch spec.Func {
		case AggCount:
		case AggSum, AggAvg:
			switch schema.Columns[spec.Col].Kind {
			case types.KindInt64, types.KindFloat64, types.KindDate, types.KindBool:
			default:
				return false
			}
		default:
			return false
		}
	}
	return true
}

// dataColumns deduplicates the aggregated columns: aIdx[i] is Aggs[i]'s
// position in dataCols, -1 for COUNT.
func (a *TableAggregate) dataColumns() (dataCols, aIdx []int) {
	aIdx = make([]int, len(a.Aggs))
	remap := map[int]int{}
	for i, spec := range a.Aggs {
		if spec.Func == AggCount {
			aIdx[i] = -1
			continue
		}
		p, ok := remap[spec.Col]
		if !ok {
			p = len(dataCols)
			dataCols = append(dataCols, spec.Col)
			remap[spec.Col] = p
		}
		aIdx[i] = p
	}
	return dataCols, aIdx
}

// numericGrouped executes via the view's vectorized kernel.
func (a *TableAggregate) numericGrouped(ctx context.Context, v *core.View) ([][]types.Value, error) {
	schema := a.Table.Schema()
	dataCols, aIdx := a.dataColumns()
	groups, err := v.AggregateNumericCtx(ctx, a.Group, dataCols)
	if err != nil {
		return nil, err
	}
	out := make([][]types.Value, 0, len(groups))
	for _, g := range groups {
		a.scanned += uint64(g.Count)
		row := make([]types.Value, 0, 1+len(a.Aggs))
		row = append(row, g.Key)
		for i, spec := range a.Aggs {
			switch spec.Func {
			case AggCount:
				row = append(row, types.Int(g.Count))
			case AggSum:
				k := aIdx[i]
				if g.Cnt[k] == 0 {
					// Match aggState semantics: an all-NULL sum is 0.
					row = append(row, types.Int(0))
				} else if schema.Columns[spec.Col].Kind == types.KindFloat64 {
					row = append(row, types.Float(g.SumF[k]))
				} else {
					row = append(row, types.Int(g.SumI[k]))
				}
			case AggAvg:
				k := aIdx[i]
				if g.Cnt[k] == 0 {
					row = append(row, types.Null)
				} else {
					total := g.SumF[k] + float64(g.SumI[k])
					row = append(row, types.Float(total/float64(g.Cnt[k])))
				}
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// spaceStates is the accumulator of one code space: a flat array of
// aggState, len(aggs) entries per code, plus a NULL-group slot.
type spaceStates struct {
	states []aggState
	seen   []bool
	null   []aggState
}

func (sp *spaceStates) grow(code int, naggs int) {
	need := (code + 1) * naggs
	for len(sp.states) < need {
		sp.states = append(sp.states, aggState{})
	}
	for len(sp.seen) <= code {
		sp.seen = append(sp.seen, false)
	}
}

func (a *TableAggregate) groupedByCode(ctx context.Context, v *core.View) ([][]types.Value, error) {
	naggs := len(a.Aggs)
	dataCols, aIdx := a.dataColumns()

	var spaces []*spaceStates
	meter := budget.FromContext(ctx)
	var scanErr error
	seen := 0
	meta := v.ScanGrouped(a.Group, dataCols, func(space int, code int32, vals []types.Value) bool {
		seen++
		if seen%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				scanErr = err
				return false
			}
		}
		for space >= len(spaces) {
			spaces = append(spaces, &spaceStates{})
		}
		sp := spaces[space]
		var states []aggState
		if code < 0 {
			if sp.null == nil {
				sp.null = make([]aggState, naggs)
			}
			states = sp.null
		} else {
			if int(code) >= len(sp.seen) {
				// Charge the growth before allocating it.
				grown := int64((int(code)+1)*naggs-len(sp.states)) * aggStateBytes
				if err := meter.Reserve(grown); err != nil {
					scanErr = err
					return false
				}
				a.Stats.AddBudget(grown)
				sp.grow(int(code), naggs)
			}
			sp.seen[code] = true
			states = sp.states[int(code)*naggs : (int(code)+1)*naggs]
		}
		for i, spec := range a.Aggs {
			var val types.Value
			if aIdx[i] >= 0 {
				val = vals[aIdx[i]]
			}
			states[i].add(spec.Func, val)
		}
		return true
	})
	a.scanned = uint64(seen)
	if scanErr != nil {
		return nil, scanErr
	}

	// Merge per-space partials by group value (group cardinality is
	// small relative to row count, so hashing here is negligible).
	type finalGroup struct {
		key    types.Value
		states []aggState
	}
	byValue := map[types.Value]*finalGroup{} // the NULL group as types.Null
	var order []*finalGroup
	fold := func(key types.Value, states []aggState) {
		g := byValue[key]
		if g == nil {
			g = &finalGroup{key: key, states: make([]aggState, naggs)}
			byValue[key] = g
			order = append(order, g)
		}
		for i := range states {
			g.states[i].merge(&states[i])
		}
	}
	for si, sp := range spaces {
		if sp == nil {
			continue
		}
		for code := range sp.seen {
			if sp.seen[code] {
				fold(meta[si].Resolve(uint32(code)), sp.states[code*naggs:(code+1)*naggs])
			}
		}
		if sp.null != nil {
			fold(types.Null, sp.null)
		}
	}
	out := make([][]types.Value, 0, len(order))
	for _, g := range order {
		row := make([]types.Value, 0, 1+naggs)
		row = append(row, g.key)
		for i, spec := range a.Aggs {
			row = append(row, g.states[i].result(spec.Func))
		}
		out = append(out, row)
	}
	return out, nil
}

// Next implements BatchIterator.
func (a *TableAggregate) Next() (*vec.Batch, error) { return a.out.Next() }

// Close implements BatchIterator. Idempotent.
func (a *TableAggregate) Close() error { return a.out.Close() }

// neededColumns computes the deduplicated projection for a pure
// aggregation and the positions of group/agg columns within it.
func neededColumns(groupBy []int, aggs []Agg) (cols []int, gIdx []int, aIdx []int) {
	remap := map[int]int{}
	use := func(c int) int {
		if p, ok := remap[c]; ok {
			return p
		}
		p := len(cols)
		cols = append(cols, c)
		remap[c] = p
		return p
	}
	gIdx = make([]int, len(groupBy))
	for i, c := range groupBy {
		gIdx[i] = use(c)
	}
	aIdx = make([]int, len(aggs))
	for i, a := range aggs {
		if a.Func == AggCount {
			aIdx[i] = -1
			continue
		}
		aIdx[i] = use(a.Col)
	}
	if len(cols) == 0 {
		// COUNT(*)-only plans still need one physical column to drive
		// the scan.
		cols = append(cols, 0)
	}
	return cols, gIdx, aIdx
}

// aggStateBytes approximates one aggState (plus its share of slice
// slack); groupBytes is the per-group bookkeeping around the key and
// states: map entry, order slot, and the aggGroup header itself.
const (
	aggStateBytes = 112
	groupBytes    = 96
)

// groupAcc is the shared grouping accumulator. When meter is set,
// every newly created group is charged against the statement's memory
// budget; a failed reservation is recorded in err (sticky), and
// callers stop the drain and surface it. Accumulating into existing
// groups never allocates, so the charge-on-create model tracks real
// growth.
type groupAcc struct {
	groups map[uint64][]*aggGroup
	order  []*aggGroup
	keybuf []types.Value
	meter  *budget.Meter
	err    error
	// reserved tallies the bytes charged to the meter, for EXPLAIN
	// ANALYZE memory actuals (0 when no meter is installed).
	reserved int64
}

type aggGroup struct {
	key    []types.Value
	states []aggState
	// First-seen position tag of the parallel drain: the (morsel,
	// row-within-morsel) of the earliest row that opened this group.
	// Sorting merged partials by tag reproduces the sequential
	// first-seen group order. Sequential accumulation leaves both 0.
	tagMorsel, tagRow int
}

// tagBefore orders first-seen tags.
func (g *aggGroup) tagBefore(o *aggGroup) bool {
	if g.tagMorsel != o.tagMorsel {
		return g.tagMorsel < o.tagMorsel
	}
	return g.tagRow < o.tagRow
}

func newGroupAcc(nkeys int, aggs []Agg) *groupAcc {
	return &groupAcc{
		groups: map[uint64][]*aggGroup{},
		keybuf: make([]types.Value, nkeys),
	}
}

func (g *groupAcc) group(aggs []Agg) *aggGroup {
	h := types.HashRow(g.keybuf)
	for _, cand := range g.groups[h] {
		if rowsEqual(cand.key, g.keybuf) {
			return cand
		}
	}
	grp := &aggGroup{key: types.CloneRow(g.keybuf), states: make([]aggState, len(aggs))}
	if g.meter != nil && g.err == nil {
		cost := groupBytes + budget.RowBytes(grp.key) + int64(len(aggs))*aggStateBytes
		if g.err = g.meter.Reserve(cost); g.err == nil {
			g.reserved += cost
		}
	}
	g.groups[h] = append(g.groups[h], grp)
	g.order = append(g.order, grp)
	return grp
}

// addProjected accumulates an already-projected row via precomputed
// positions.
func (g *groupAcc) addProjected(vals []types.Value, gIdx, aIdx []int, aggs []Agg) {
	for i, p := range gIdx {
		g.keybuf[i] = vals[p]
	}
	grp := g.group(aggs)
	for i, spec := range aggs {
		var v types.Value
		if aIdx[i] >= 0 {
			v = vals[aIdx[i]]
		}
		grp.states[i].add(spec.Func, v)
	}
}

// addTagged is add for the parallel drain: when the row opens a new
// group, the group is tagged with the row's (morsel, row) position.
func (g *groupAcc) addTagged(row []types.Value, groupBy []int, aggs []Agg, tagMorsel, tagRow int) {
	for i, c := range groupBy {
		g.keybuf[i] = row[c]
	}
	before := len(g.order)
	grp := g.group(aggs)
	if len(g.order) > before {
		grp.tagMorsel, grp.tagRow = tagMorsel, tagRow
	}
	for i, spec := range aggs {
		var v types.Value
		if spec.Func != AggCount {
			v = row[spec.Col]
		}
		grp.states[i].add(spec.Func, v)
	}
}

// mergeFrom folds another accumulator's partial groups into this one,
// keeping the earliest first-seen tag per group.
func (g *groupAcc) mergeFrom(other *groupAcc, aggs []Agg) {
	for _, src := range other.order {
		copy(g.keybuf, src.key)
		before := len(g.order)
		dst := g.group(aggs)
		if len(g.order) > before || src.tagBefore(dst) {
			dst.tagMorsel, dst.tagRow = src.tagMorsel, src.tagRow
		}
		for i := range dst.states {
			dst.states[i].merge(&src.states[i])
		}
	}
}

// sortByTag orders the groups by first-seen tag — after merging
// parallel partials this is the sequential scan's first-seen order.
func (g *groupAcc) sortByTag() {
	sort.Slice(g.order, func(a, b int) bool { return g.order[a].tagBefore(g.order[b]) })
}

// rows materializes the results (global aggregates yield one row even
// on empty input).
func (g *groupAcc) rows(groupBy []int, aggs []Agg) [][]types.Value {
	order := g.order
	if len(groupBy) == 0 && len(order) == 0 {
		order = append(order, &aggGroup{states: make([]aggState, len(aggs))})
	}
	out := make([][]types.Value, 0, len(order))
	for _, grp := range order {
		row := make([]types.Value, 0, len(grp.key)+len(aggs))
		row = append(row, grp.key...)
		for i, spec := range aggs {
			row = append(row, grp.states[i].result(spec.Func))
		}
		out = append(out, row)
	}
	return out
}
