// Package engine implements the physical operators of the "Engine
// Layer" (paper §2.2): scan, filter, project, limit, hash join,
// aggregation, sort, union and the OLAP star join, all speaking one
// vectorized Open-Next-Close protocol [3] over column batches. Table
// scans stream with the statement view pinned (the pipelined access
// mode of §3.1); rows exist only where BatchValues feeds materialized
// data into a tree and where CollectBatches drains one at the result
// edge.
package engine

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/mvcc"
	"repro/internal/types"
	"repro/internal/vec"
)

// BatchIterator is the vectorized Open-Next-Close protocol: Next
// returns the next column batch, nil at end of stream. A returned
// batch is owned by the producer and only valid until the next Next
// call; blocking consumers must copy what they keep. Close is
// idempotent on every operator in this package and safe to call on an
// operator whose Open failed (or was never called).
type BatchIterator interface {
	// Open prepares the operator (and its children) for iteration.
	Open() error
	// Next returns the next batch; nil reports end of stream.
	Next() (*vec.Batch, error)
	// Close releases resources (and closes children).
	Close() error
}

// ErrNotOpen reports Next on an unopened operator.
var ErrNotOpen = errors.New("engine: iterator not open")

// BatchTableScan streams a unified table as column batches with
// predicate pushdown onto dictionary codes (§4.1's operators
// "directly leverage existing dictionaries"). It does not
// materialize: the statement view stays pinned from Open to Close
// (the paper's pipelined access mode, §3.1), so the scan is O(batch)
// in memory regardless of result size, and limit pushdown stops the
// scan early.
type BatchTableScan struct {
	Table *core.Table
	Txn   *mvcc.Txn
	Pred  expr.Predicate
	// Cols, when non-nil, projects the scan to the listed columns (in
	// that order). Pred references the table's original ordinals.
	Cols []int
	// AsOf, when non-zero, reads at an explicit snapshot (time
	// travel); Txn is ignored then.
	AsOf uint64
	// BatchSize overrides the table's configured batch row capacity
	// when positive.
	BatchSize int
	// Ctx, when non-nil, cancels the scan at batch granularity: Next
	// returns ctx.Err() once the context is done.
	Ctx context.Context
	// Unordered opts into the morsel-parallel scan: batches arrive in
	// worker completion order instead of life-cycle stitch order.
	// Order-insensitive consumers (aggregation, join builds, COUNT)
	// set it; the row SET is identical for every worker count.
	Unordered bool
	// Workers overrides the table's ScanWorkers resolution when
	// positive. The parallel path only engages when Unordered is set
	// and the resolved count exceeds 1.
	Workers int
	// Stats, when non-nil, collects this scan's actuals (EXPLAIN
	// ANALYZE); the cursor-level totals are harvested at Close, so a
	// cancelled statement still reports the rows it got through.
	Stats *OpStats

	view *core.View
	cur  *core.BatchScan
	pcur *core.ParallelBatchScan
}

// resolvedWorkers is the scan's effective worker budget: the explicit
// override, else the table's ScanWorkers resolution.
func (s *BatchTableScan) resolvedWorkers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	if s.Table == nil {
		return 1
	}
	return s.Table.ScanWorkers()
}

// openView pins the statement view (shared with the operators that
// drain a table scan through the parallel machinery directly).
func (s *BatchTableScan) openView() *core.View {
	if s.AsOf != 0 {
		return s.Table.AsOf(s.AsOf)
	}
	return s.Table.View(s.Txn)
}

// Open implements BatchIterator.
func (s *BatchTableScan) Open() error {
	if s.Ctx != nil {
		if err := s.Ctx.Err(); err != nil {
			return err
		}
	}
	s.view = s.openView()
	if s.Unordered && s.resolvedWorkers() > 1 {
		s.pcur = s.view.NewParallelBatchScan(s.Ctx, s.Cols, s.Pred, s.BatchSize, s.resolvedWorkers())
	} else {
		s.cur = s.view.NewBatchScanCtx(s.Ctx, s.Cols, s.Pred, s.BatchSize)
	}
	return nil
}

// Next implements BatchIterator.
func (s *BatchTableScan) Next() (*vec.Batch, error) {
	if s.Stats == nil {
		return s.next()
	}
	t0 := time.Now()
	b, err := s.next()
	s.Stats.AddWall(time.Since(t0))
	return b, err
}

func (s *BatchTableScan) next() (*vec.Batch, error) {
	if s.pcur != nil {
		b := s.pcur.Next()
		if b == nil {
			return nil, s.pcur.Err()
		}
		return b, nil
	}
	if s.cur == nil {
		return nil, ErrNotOpen
	}
	b := s.cur.Next()
	if b == nil {
		return nil, s.cur.Err()
	}
	return b, nil
}

// Close implements BatchIterator. Idempotent. When Stats is set, the
// cursor totals (rows, batches, residual drops, decode-cache hits,
// parallel shape) are harvested here — Close runs on error paths too,
// so a killed or timed-out statement keeps its partial actuals.
func (s *BatchTableScan) Close() error {
	if s.pcur != nil {
		s.pcur.Close()
		if s.Stats != nil {
			s.Stats.SetScan(s.pcur.Stats())
		}
		s.pcur = nil
	}
	if s.view != nil {
		if s.cur != nil && s.Stats != nil {
			s.Stats.SetScan(s.cur.Stats())
		}
		s.view.Close()
		s.view, s.cur = nil, nil
	}
	return nil
}

// BatchFilter refines each batch's selection vector with a predicate;
// vectors are never copied. Row slices handed to Pred.Eval follow the
// input batch's column order, so Pred must reference batch-local
// ordinals.
type BatchFilter struct {
	In   BatchIterator
	Pred expr.Predicate
	// Stats, when non-nil, collects the filter's actuals.
	Stats *OpStats

	rowBuf []types.Value
	open   bool
}

// Open implements BatchIterator.
func (f *BatchFilter) Open() error {
	if err := f.In.Open(); err != nil {
		return err
	}
	f.open = true
	return nil
}

// Next implements BatchIterator.
func (f *BatchFilter) Next() (*vec.Batch, error) {
	var t0 time.Time
	if f.Stats != nil {
		t0 = time.Now()
	}
	for {
		b, err := f.In.Next()
		if err != nil || b == nil {
			if f.Stats != nil {
				f.Stats.AddWall(time.Since(t0))
			}
			return nil, err
		}
		if f.Pred != nil {
			if cap(f.rowBuf) < b.NumCols() {
				f.rowBuf = make([]types.Value, b.NumCols())
			}
			buf := f.rowBuf[:b.NumCols()]
			b.Select(func(pos int) bool {
				for i, c := range b.Cols {
					buf[i] = c.Value(pos)
				}
				return f.Pred.Eval(buf)
			})
		}
		if b.Rows() > 0 {
			if f.Stats != nil {
				f.Stats.AddOut(b.Rows())
				f.Stats.AddWall(time.Since(t0))
			}
			return b, nil
		}
	}
}

// Close implements BatchIterator. Idempotent.
func (f *BatchFilter) Close() error {
	if !f.open {
		return nil
	}
	f.open = false
	return f.In.Close()
}

// BatchProject prunes each batch to the listed columns — a header
// rewrite sharing the input's vectors, the "free" projection of
// columnar layout.
type BatchProject struct {
	In   BatchIterator
	Cols []int
	// Stats, when non-nil, collects the projection's actuals.
	Stats *OpStats

	open bool
}

// Open implements BatchIterator.
func (p *BatchProject) Open() error {
	if err := p.In.Open(); err != nil {
		return err
	}
	p.open = true
	return nil
}

// Next implements BatchIterator.
func (p *BatchProject) Next() (*vec.Batch, error) {
	if p.Stats != nil {
		t0 := time.Now()
		defer func() { p.Stats.AddWall(time.Since(t0)) }()
	}
	b, err := p.In.Next()
	if err != nil || b == nil {
		return nil, err
	}
	p.Stats.AddOut(b.Rows())
	return b.Project(p.Cols), nil
}

// Close implements BatchIterator. Idempotent.
func (p *BatchProject) Close() error {
	if !p.open {
		return nil
	}
	p.open = false
	return p.In.Close()
}

// BatchLimit truncates the stream after N rows. Once satisfied it
// stops pulling from its input entirely — with a streaming source
// like BatchTableScan this is limit pushdown: the scan never decodes
// past the last needed batch.
type BatchLimit struct {
	In BatchIterator
	N  int
	// Stats, when non-nil, collects the limit's actuals.
	Stats *OpStats

	n    int
	sel  []int32
	out  *vec.Batch
	open bool
}

// Open implements BatchIterator.
func (l *BatchLimit) Open() error {
	l.n = 0
	if err := l.In.Open(); err != nil {
		return err
	}
	l.open = true
	return nil
}

// Next implements BatchIterator.
func (l *BatchLimit) Next() (*vec.Batch, error) {
	if l.Stats != nil {
		t0 := time.Now()
		defer func() { l.Stats.AddWall(time.Since(t0)) }()
	}
	if l.n >= l.N {
		return nil, nil
	}
	b, err := l.In.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if rem := l.N - l.n; b.Rows() > rem {
		// Truncate through a limit-owned batch header and selection
		// vector sharing the producer's column vectors. The input batch
		// belongs to the producer and is reused on its next fill:
		// mutating it in place (b.Truncate) would plant a selection the
		// producer never cleans up, silently dropping rows from any
		// later fill of the same batch object.
		l.sel = l.sel[:0]
		if b.Sel != nil {
			l.sel = append(l.sel, b.Sel[:rem]...)
		} else {
			for i := 0; i < rem; i++ {
				l.sel = append(l.sel, int32(i))
			}
		}
		if l.out == nil {
			l.out = &vec.Batch{}
		}
		l.out.Cols = b.Cols
		l.out.Sel = l.sel
		l.out.SetLen(b.Len())
		b = l.out
	}
	l.n += b.Rows()
	l.Stats.AddOut(b.Rows())
	return b, nil
}

// Close implements BatchIterator. Idempotent.
func (l *BatchLimit) Close() error {
	if !l.open {
		return nil
	}
	l.open = false
	return l.In.Close()
}

// BatchHashJoin is the vectorized equi-join: the right (build) side
// is drained into a hash table in Open, then each probe batch yields
// one output batch. Output columns are left columns followed by right
// columns. When the build side is an exclusively-owned table scan and
// the table resolves more than one scan worker, the build runs
// morsel-parallel: workers partition build rows by key hash into
// per-worker per-partition segments tagged with their morsel index,
// and the partition tables are assembled in parallel by concatenating
// segments in morsel order — the exact insertion order of the
// sequential build, so results are identical for every worker count.
type BatchHashJoin struct {
	Left, Right       BatchIterator
	LeftCol, RightCol int
	// Budget, when non-nil, charges the materialized build side
	// against the statement's memory budget; a blown budget fails
	// Open with budget.ErrBudgetExceeded instead of OOMing. Falls
	// back to the meter carried by the build-side scan's context.
	Budget *budget.Meter
	// Stats, when non-nil, collects the join's actuals (build wall
	// time lands in AddWall at Open; probe time accumulates in Next).
	Stats *OpStats

	table      map[types.Value][][]types.Value
	parts      []map[types.Value][][]types.Value
	rightWidth int
	out        *vec.Batch
	lbuf       []types.Value
	leftOpen   bool
	rightOpen  bool
}

// joinBuildPartitions is the partition fan-out of the parallel build:
// enough to keep a worker pool busy during table assembly without
// fragmenting small build sides.
const joinBuildPartitions = 16

// buildSeg is one worker's build rows for one (morsel, partition)
// cell, in arrival order.
type buildSeg struct {
	morsel int
	rows   [][]types.Value
}

// meter resolves the effective build budget: the explicit field, else
// whatever meter rides the build-side scan's context.
func (j *BatchHashJoin) meter() *budget.Meter {
	if j.Budget != nil {
		return j.Budget
	}
	if rs, ok := j.Right.(*BatchTableScan); ok {
		return budget.FromContext(rs.Ctx)
	}
	return nil
}

// buildRowBytes is the per-row hash-table overhead beyond the values:
// the rows slice slot and amortized map bucket share.
const buildRowBytes = 48

// Open implements BatchIterator.
func (j *BatchHashJoin) Open() error {
	var t0 time.Time
	if j.Stats != nil {
		t0 = time.Now()
		defer func() { j.Stats.AddWall(time.Since(t0)) }()
	}
	j.table, j.parts, j.rightWidth = nil, nil, 0
	j.out, j.lbuf = nil, nil
	if rs, ok := j.Right.(*BatchTableScan); ok && rs.Table != nil && rs.resolvedWorkers() > 1 {
		if err := j.buildParallel(rs); err != nil {
			return err
		}
	} else if err := j.buildSequential(); err != nil {
		return err
	}
	if err := j.Left.Open(); err != nil {
		return err
	}
	j.leftOpen = true
	return nil
}

// buildSequential drains Right into the hash table on the calling
// goroutine, closing Right on every path.
func (j *BatchHashJoin) buildSequential() error {
	if err := j.Right.Open(); err != nil {
		return err
	}
	j.rightOpen = true
	j.table = make(map[types.Value][][]types.Value)
	meter := j.meter()
	for {
		b, err := j.Right.Next()
		if err != nil {
			j.closeRight()
			return err
		}
		if b == nil {
			break
		}
		var bytes int64
		for i := 0; i < b.Rows(); i++ {
			row := b.RowAt(i, nil)
			j.rightWidth = len(row)
			k := row[j.RightCol]
			if k.IsNull() {
				continue
			}
			j.table[k] = append(j.table[k], row)
			if meter != nil {
				bytes += buildRowBytes + budget.RowBytes(row)
			}
		}
		// One reservation per batch keeps the accounting off the
		// per-row hot path.
		if err := meter.Reserve(bytes); err != nil {
			j.closeRight()
			return err
		}
		j.Stats.AddBudget(bytes)
	}
	return j.closeRight()
}

// buildParallel drains the build-side table scan through the
// morsel-parallel machinery into partitioned hash tables.
func (j *BatchHashJoin) buildParallel(rs *BatchTableScan) error {
	if rs.Ctx != nil {
		if err := rs.Ctx.Err(); err != nil {
			return err
		}
	}
	view := rs.openView()
	defer view.Close()

	workers := rs.resolvedWorkers()
	// segs[w][p] collects worker w's rows for partition p; workers run
	// their callbacks serially, so no locking inside a row.
	segs := make([][][]buildSeg, workers)
	for w := range segs {
		segs[w] = make([][]buildSeg, joinBuildPartitions)
	}
	var width int
	var widthMu sync.Mutex
	meter := j.meter()
	var budgetErr error
	var budgetMu sync.Mutex
	ss, err := view.ScanBatchesParallelStats(rs.Ctx, rs.Cols, rs.Pred, rs.BatchSize, workers,
		func(w, mi int, b *vec.Batch) bool {
			rows := b.Materialize()
			if len(rows) > 0 {
				widthMu.Lock()
				width = len(rows[0])
				widthMu.Unlock()
			}
			var bytes int64
			for _, row := range rows {
				k := row[j.RightCol]
				if k.IsNull() {
					continue
				}
				p := int(types.Hash(k) % joinBuildPartitions)
				cell := segs[w][p]
				if len(cell) == 0 || cell[len(cell)-1].morsel != mi {
					cell = append(cell, buildSeg{morsel: mi})
				}
				cell[len(cell)-1].rows = append(cell[len(cell)-1].rows, row)
				segs[w][p] = cell
				if meter != nil {
					bytes += buildRowBytes + budget.RowBytes(row)
				}
			}
			if err := meter.Reserve(bytes); err != nil {
				budgetMu.Lock()
				if budgetErr == nil {
					budgetErr = err
				}
				budgetMu.Unlock()
				return false
			}
			j.Stats.AddBudget(bytes)
			return true
		})
	// The fused build bypasses the scan operator, so its stats node —
	// when the plan carries one — is fed from the scan-level actuals
	// here, on success and error paths alike.
	if rs.Stats != nil {
		rs.Stats.SetScan(ss)
	}
	if err != nil {
		return err
	}
	if budgetErr != nil {
		return budgetErr
	}
	j.rightWidth = width

	// Assemble each partition's table in parallel: gather the
	// partition's segments from every worker, order them by morsel
	// index, and insert rows in that order — per key, the sequential
	// build's insertion order.
	j.parts = make([]map[types.Value][][]types.Value, joinBuildPartitions)
	var wg sync.WaitGroup
	for p := 0; p < joinBuildPartitions; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var all []buildSeg
			for w := range segs {
				all = append(all, segs[w][p]...)
			}
			sort.Slice(all, func(a, b int) bool { return all[a].morsel < all[b].morsel })
			m := make(map[types.Value][][]types.Value)
			for _, seg := range all {
				for _, row := range seg.rows {
					k := row[j.RightCol]
					m[k] = append(m[k], row)
				}
			}
			j.parts[p] = m
		}(p)
	}
	wg.Wait()
	return nil
}

// closeRight closes the build side exactly once.
func (j *BatchHashJoin) closeRight() error {
	if !j.rightOpen {
		return nil
	}
	j.rightOpen = false
	return j.Right.Close()
}

// lookup returns the build rows matching k, from whichever table
// shape the build produced.
func (j *BatchHashJoin) lookup(k types.Value) [][]types.Value {
	if j.parts != nil {
		return j.parts[int(types.Hash(k)%joinBuildPartitions)][k]
	}
	return j.table[k]
}

// Next implements BatchIterator.
func (j *BatchHashJoin) Next() (*vec.Batch, error) {
	if !j.leftOpen {
		return nil, ErrNotOpen
	}
	var t0 time.Time
	if j.Stats != nil {
		t0 = time.Now()
		defer func() { j.Stats.AddWall(time.Since(t0)) }()
	}
	for {
		b, err := j.Left.Next()
		if err != nil || b == nil {
			return nil, err
		}
		if j.out == nil {
			// Output width is known once the first probe batch arrives;
			// kinds are adopted from the appended values.
			j.out = vec.New(make([]types.Kind, b.NumCols()+j.rightWidth))
		}
		j.out.Reset()
		for i := 0; i < b.Rows(); i++ {
			j.lbuf = b.RowAt(i, j.lbuf)
			k := j.lbuf[j.LeftCol]
			if k.IsNull() {
				continue
			}
			for _, right := range j.lookup(k) {
				ci := 0
				for _, v := range j.lbuf {
					j.out.Cols[ci].Append(v)
					ci++
				}
				for _, v := range right {
					j.out.Cols[ci].Append(v)
					ci++
				}
				j.out.SetLen(j.out.Len() + 1)
			}
		}
		if j.out.Len() > 0 {
			j.Stats.AddOut(j.out.Len())
			return j.out, nil
		}
	}
}

// Close implements BatchIterator: both children are closed exactly
// once, whichever of them is still open. Idempotent, and safe when
// Open failed partway.
func (j *BatchHashJoin) Close() error {
	err := j.closeRight()
	if j.leftOpen {
		j.leftOpen = false
		err = errors.Join(err, j.Left.Close())
	}
	return err
}

// BatchHashAggregate groups batches by the GroupBy columns and
// computes the Aggs; output rows are group columns followed by
// aggregate results (one global row with no GroupBy). Blocking: the
// input is drained in Open into the shared grouping accumulator.
//
// When the input is an exclusively-owned table scan and the table
// resolves more than one scan worker, the drain runs morsel-parallel:
// each worker accumulates into a private partial tagged with each
// group's first-seen (morsel, row) position, and the partials merge
// in tag order — reproducing the sequential first-seen group order,
// so results are identical for every worker count (floating-point
// sums may differ in the last ulp from reassociation).
type BatchHashAggregate struct {
	In      BatchIterator
	GroupBy []int
	Aggs    []Agg
	// Budget, when non-nil, charges group creation against the
	// statement's memory budget; a blown budget fails Open with
	// budget.ErrBudgetExceeded. Falls back to the meter carried by
	// the input scan's context.
	Budget *budget.Meter
	// Stats, when non-nil, collects the aggregate's actuals.
	Stats *OpStats

	out    *vec.Batch
	done   bool
	inOpen bool
}

// meter resolves the effective accumulator budget.
func (a *BatchHashAggregate) meter() *budget.Meter {
	if a.Budget != nil {
		return a.Budget
	}
	if ts, ok := a.In.(*BatchTableScan); ok {
		return budget.FromContext(ts.Ctx)
	}
	return nil
}

// Open implements BatchIterator.
func (a *BatchHashAggregate) Open() error {
	var t0 time.Time
	if a.Stats != nil {
		t0 = time.Now()
		defer func() { a.Stats.AddWall(time.Since(t0)) }()
	}
	a.out, a.done = nil, false
	if ts, ok := a.In.(*BatchTableScan); ok && ts.Table != nil && ts.resolvedWorkers() > 1 {
		return a.openParallel(ts)
	}
	if err := a.In.Open(); err != nil {
		return err
	}
	a.inOpen = true
	acc := newGroupAcc(len(a.GroupBy), a.Aggs)
	acc.meter = a.meter()
	// Box only the columns the aggregation reads, not whole rows.
	cols, gIdx, aIdx := neededColumns(a.GroupBy, a.Aggs)
	vals := make([]types.Value, len(cols))
	for {
		b, err := a.In.Next()
		if err != nil {
			a.closeIn()
			return err
		}
		if b == nil {
			break
		}
		for i := 0; i < b.Rows(); i++ {
			p := i
			if b.Sel != nil {
				p = int(b.Sel[i])
			}
			for j, c := range cols {
				vals[j] = b.Cols[c].Value(p)
			}
			acc.addProjected(vals, gIdx, aIdx, a.Aggs)
		}
		if acc.err != nil {
			a.closeIn()
			return acc.err
		}
	}
	if err := a.closeIn(); err != nil {
		return err
	}
	a.emit(acc)
	return nil
}

// openParallel drains the input table scan through the
// morsel-parallel machinery into per-worker partial accumulators.
func (a *BatchHashAggregate) openParallel(ts *BatchTableScan) error {
	if ts.Ctx != nil {
		if err := ts.Ctx.Err(); err != nil {
			return err
		}
	}
	view := ts.openView()
	defer view.Close()

	workers := ts.resolvedWorkers()
	accs := make([]*groupAcc, workers)
	bufs := make([][]types.Value, workers)
	// Per-worker morsel cursor for first-seen tags: a morsel is
	// processed by exactly one worker, batch by batch in row order, so
	// (morsel, row-within-morsel) totally orders rows exactly as the
	// sequential scan visits them.
	curMorsel := make([]int, workers)
	seq := make([]int, workers)
	meter := a.meter()
	for w := range accs {
		accs[w] = newGroupAcc(len(a.GroupBy), a.Aggs)
		accs[w].meter = meter
		curMorsel[w] = -1
	}
	ss, err := view.ScanBatchesParallelStats(ts.Ctx, ts.Cols, ts.Pred, ts.BatchSize, workers,
		func(w, mi int, b *vec.Batch) bool {
			if curMorsel[w] != mi {
				curMorsel[w], seq[w] = mi, 0
			}
			for i := 0; i < b.Rows(); i++ {
				bufs[w] = b.RowAt(i, bufs[w])
				accs[w].addTagged(bufs[w], a.GroupBy, a.Aggs, mi, seq[w])
				seq[w]++
			}
			return accs[w].err == nil
		})
	// The fused drain bypasses the scan operator; feed the scan node's
	// stats — when the plan carries one — from the scan-level actuals,
	// on success and error paths alike.
	if ts.Stats != nil {
		ts.Stats.SetScan(ss)
	}
	if err != nil {
		return err
	}
	for _, acc := range accs {
		if acc.err != nil {
			return acc.err
		}
	}
	merged := accs[0]
	for _, acc := range accs[1:] {
		merged.mergeFrom(acc, a.Aggs)
	}
	if merged.err != nil {
		return merged.err
	}
	merged.sortByTag()
	for _, acc := range accs[1:] {
		merged.reserved += acc.reserved
	}
	a.emit(merged)
	return nil
}

// emit materializes the accumulator into the single output batch.
func (a *BatchHashAggregate) emit(acc *groupAcc) {
	a.out = vec.New(make([]types.Kind, len(a.GroupBy)+len(a.Aggs)))
	for _, row := range acc.rows(a.GroupBy, a.Aggs) {
		a.out.AppendRow(row)
	}
	a.Stats.AddBudget(acc.reserved)
	a.done = false
}

// closeIn closes the input exactly once.
func (a *BatchHashAggregate) closeIn() error {
	if !a.inOpen {
		return nil
	}
	a.inOpen = false
	return a.In.Close()
}

// Next implements BatchIterator.
func (a *BatchHashAggregate) Next() (*vec.Batch, error) {
	if a.out == nil {
		return nil, ErrNotOpen
	}
	if a.done {
		return nil, nil
	}
	a.done = true
	a.Stats.AddOut(a.out.Rows())
	return a.out, nil
}

// Close implements BatchIterator: the input is closed here when a
// failed or abandoned Open left it open (a completed Open has already
// closed it after the drain). Idempotent.
func (a *BatchHashAggregate) Close() error {
	return a.closeIn()
}

// CollectBatches drains a batch iterator into materialized rows,
// handling Open/Close (Close runs after a failed Open too, which
// every operator tolerates).
func CollectBatches(it BatchIterator) ([][]types.Value, error) {
	defer it.Close()
	if err := it.Open(); err != nil {
		return nil, err
	}
	var out [][]types.Value
	for {
		b, err := it.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b.Materialize()...)
	}
}
