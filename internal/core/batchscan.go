package core

import (
	"context"
	"sort"

	"repro/internal/budget"
	"repro/internal/expr"
	"repro/internal/mainstore"
	"repro/internal/types"
	"repro/internal/vec"
)

// stageFiller is the per-stage batch producer contract: append up to
// room rows to the output vectors, report the count and whether the
// stage can produce more. l1delta.BatchScan, l2delta.BatchScan, and
// mainstore.BatchScan all satisfy it.
type stageFiller interface {
	Fill(out []*vec.Col, room int) (int, bool)
}

// ScanStats are one scan's cursor-level totals, harvested after the
// scan finishes (EXPLAIN ANALYZE per-operator actuals). Sequential
// cursors fill them directly; morsel-parallel scans fold per-worker
// locals into the driver as each worker finishes, so reading them is
// only race-free once the scan has completed or been cancelled.
type ScanStats struct {
	// Rows and Batches count what the cursor emitted (after pushdown
	// and residual filtering).
	Rows, Batches uint64
	// ResidualDropped counts rows removed by the residual predicate —
	// rows the pushed-down code ranges could not exclude.
	ResidualDropped uint64
	// DecodeHits/DecodeMisses are the main-stage decode-cache totals.
	DecodeHits, DecodeMisses uint64
	// CacheBytes is the decode-cache footprint charged to the
	// statement's memory budget.
	CacheBytes int64
	// Workers and Morsels describe the parallel shape (1 and 0 for a
	// sequential scan).
	Workers, Morsels int
}

// BatchScan streams the view's visible rows as column batches,
// stitching the three life-cycle stages in order (L1-delta, L2-delta
// generations, main chain). Pushed-down ranges are evaluated on
// dictionary codes inside the columnar stages and on row values in
// the L1-delta; the residual predicate is evaluated per batch here.
// The returned batches are reused: consumers must finish with one
// before pulling the next.
type BatchScan struct {
	v         *View
	ctx       context.Context // nil = never cancelled
	err       error           // sticky ctx error; see Err
	outCols   []int
	scanCols  []int
	outIdx    []int
	residual  expr.Predicate
	batchSize int
	stages    []stageFiller
	stage     int
	scan      *vec.Batch
	out       *vec.Batch
	rowBuf    []types.Value

	// met is the owning table's metric handles; mainCur keeps a typed
	// reference to the main-stage cursor so Next can harvest
	// decode-cache deltas without coupling mainstore to the registry.
	met                  *tableMetrics
	mainCur              *mainstore.BatchScan
	lastHits, lastMisses uint64

	// Cursor-local totals behind Stats; kept separate from the shared
	// table metrics so one statement's actuals are attributable.
	rows, batches, residDropped uint64
}

// NewBatchScan plans a batch scan producing the listed columns (nil =
// all) for rows satisfying pred (nil = all). batchSize ≤ 0 selects
// the table's configured BatchSize. The cursor is only valid while
// the view is open.
func (v *View) NewBatchScan(cols []int, pred expr.Predicate, batchSize int) *BatchScan {
	return v.NewBatchScanCtx(nil, cols, pred, batchSize)
}

// scanPlan is the shared front half of a batch scan: the column
// projection, pushed-down ranges, residual predicate, and batch
// sizing. Both the sequential cursor and the morsel-parallel workers
// execute one plan; workers instantiate their own stage cursors from
// it.
type scanPlan struct {
	v         *View
	outCols   []int
	scanCols  []int
	outIdx    []int
	kinds     []types.Kind
	ranges    []expr.ColumnRange
	residual  expr.Predicate
	l1Filter  func([]types.Value) bool
	batchSize int
	// meter is the statement's memory budget (nil = unlimited),
	// lifted off the scan context so every cursor the plan spawns —
	// sequential or one per morsel worker — charges its decode caches
	// against the same statement-wide pool.
	meter *budget.Meter
}

// planScan resolves columns, pushdown, and batch size for a scan of
// the view. cols == nil selects every column; batchSize <= 0 selects
// the table's configured size.
func (v *View) planScan(cols []int, pred expr.Predicate, batchSize int) *scanPlan {
	schema := v.t.cfg.Schema
	if cols == nil {
		cols = make([]int, len(schema.Columns))
		for i := range cols {
			cols[i] = i
		}
	}
	if batchSize <= 0 {
		batchSize = v.t.cfg.BatchSize
	}
	if batchSize <= 0 {
		batchSize = vec.DefaultBatchSize
	}
	p := &scanPlan{v: v, outCols: cols, batchSize: batchSize}

	ranges, residual := expr.Pushdown(pred)
	p.ranges, p.residual = ranges, residual

	// The scan must cover the requested columns plus whatever the
	// residual reads; unknown predicate shapes widen to every column.
	need := map[int]bool{}
	for _, col := range cols {
		need[col] = true
	}
	if residual != nil {
		if rcols, ok := expr.Columns(residual); ok {
			for _, col := range rcols {
				need[col] = true
			}
		} else {
			for i := range schema.Columns {
				need[i] = true
			}
		}
	}
	p.scanCols = make([]int, 0, len(need))
	for col := range need {
		p.scanCols = append(p.scanCols, col)
	}
	sort.Ints(p.scanCols)
	at := make(map[int]int, len(p.scanCols))
	for i, col := range p.scanCols {
		at[col] = i
	}
	p.outIdx = make([]int, len(cols))
	for i, col := range cols {
		p.outIdx[i] = at[col]
	}

	p.kinds = make([]types.Kind, len(p.scanCols))
	for i, col := range p.scanCols {
		p.kinds[i] = schema.Columns[col].Kind
	}

	// The L1-delta holds uncompressed rows, so pushed-down ranges
	// become a value-level filter there; the columnar stages resolve
	// them to dictionary codes.
	if len(ranges) > 0 {
		betweens := make([]expr.Between, len(ranges))
		for i, r := range ranges {
			betweens[i] = expr.Between{Col: r.Col, Lo: r.Lo, Hi: r.Hi, LoInc: r.LoInc, HiInc: r.HiInc}
		}
		p.l1Filter = func(vals []types.Value) bool {
			for _, b := range betweens {
				if !b.Eval(vals) {
					return false
				}
			}
			return true
		}
	}
	return p
}

// NewBatchScanCtx is NewBatchScan under a context: cancellation is
// observed at batch granularity — Next returns nil mid-scan and Err
// reports ctx.Err().
func (v *View) NewBatchScanCtx(ctx context.Context, cols []int, pred expr.Predicate, batchSize int) *BatchScan {
	p := v.planScan(cols, pred, batchSize)
	p.meter = budget.FromContext(ctx)
	c := &BatchScan{v: v, ctx: ctx, outCols: p.outCols, scanCols: p.scanCols,
		outIdx: p.outIdx, residual: p.residual, batchSize: p.batchSize}
	c.scan = vec.New(p.kinds)
	c.out = c.scan.Project(c.outIdx)
	c.rowBuf = make([]types.Value, len(v.t.cfg.Schema.Columns))

	c.stages = append(c.stages, v.l1.NewBatchScan(c.scanCols, v.l1Border, v.snap, v.self, p.l1Filter))
	for gi, g := range v.l2s {
		cur := g.NewBatchScan(c.scanCols, v.borders[gi], v.snap, v.self)
		for _, r := range p.ranges {
			cur.FilterRange(r.Col, r.Lo, r.Hi, r.LoInc, r.HiInc)
		}
		c.stages = append(c.stages, cur)
	}
	mcur := v.main.NewBatchScan(c.scanCols, v.tombs, v.snap, v.self)
	for _, r := range p.ranges {
		mcur.FilterRange(r.Col, r.Lo, r.Hi, r.LoInc, r.HiInc)
	}
	c.stages = append(c.stages, mcur)
	c.met = v.t.met
	c.mainCur = mcur
	if err := p.meter.Reserve(mcur.CacheBytes()); err != nil {
		// Sticky: the first Next returns nil and Err reports the
		// budget failure, the same shape as a cancelled context.
		c.err = err
	}
	return c
}

// Next returns the next non-empty batch of visible rows, or nil at
// end of scan — or on cancellation, which Err distinguishes. The
// batch (and its vectors) is reused by the next call.
func (c *BatchScan) Next() *vec.Batch {
	start := c.met.scanBatchSeconds.Start()
	b := c.nextBatch()
	c.met.scanBatchSeconds.Stop(start)
	if b != nil {
		c.met.scanBatches.Inc()
		c.met.scanRows.Add(uint64(b.Rows()))
		c.batches++
		c.rows += uint64(b.Rows())
	}
	if c.mainCur != nil {
		// Harvest the main cursor's decode-cache deltas accumulated
		// since the previous batch.
		hits, misses := c.mainCur.CacheStats()
		c.met.decodeHits.Add(hits - c.lastHits)
		c.met.decodeMisses.Add(misses - c.lastMisses)
		c.lastHits, c.lastMisses = hits, misses
	}
	return b
}

func (c *BatchScan) nextBatch() *vec.Batch {
	if c.err != nil {
		return nil
	}
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			c.err = err
			return nil
		}
	}
	for {
		c.scan.Reset()
		n := 0
		for n < c.batchSize && c.stage < len(c.stages) {
			filled, more := c.stages[c.stage].Fill(c.scan.Cols, c.batchSize-n)
			n += filled
			if !more {
				c.stage++
			}
		}
		if n == 0 {
			return nil
		}
		c.scan.SetLen(n)
		if c.residual != nil {
			c.scan.Select(func(pos int) bool {
				for j, sc := range c.scanCols {
					c.rowBuf[sc] = c.scan.Cols[j].Value(pos)
				}
				return c.residual.Eval(c.rowBuf)
			})
			c.met.residualFiltered.Add(uint64(n - c.scan.Rows()))
			c.residDropped += uint64(n - c.scan.Rows())
			if c.scan.Rows() == 0 {
				continue // batch fully filtered; pull the next one
			}
		}
		// The output batch shares the scan vectors; refresh its header.
		c.out.Sel = c.scan.Sel
		c.out.SetLen(c.scan.Len())
		return c.out
	}
}

// Err returns the error that aborted the scan — the context error on
// cancellation, or a budget.ErrBudgetExceeded failure when the decode
// caches did not fit the statement's memory budget — or nil when
// Next's nil meant a clean end of stream.
func (c *BatchScan) Err() error { return c.err }

// Stats returns the cursor's totals so far; stable once the scan has
// ended (Next returned nil).
func (c *BatchScan) Stats() ScanStats {
	s := ScanStats{Rows: c.rows, Batches: c.batches,
		ResidualDropped: c.residDropped, Workers: 1}
	if c.mainCur != nil {
		s.DecodeHits, s.DecodeMisses = c.mainCur.CacheStats()
		s.CacheBytes = c.mainCur.CacheBytes()
	}
	return s
}

// ScanBatches streams the visible rows satisfying pred as column
// batches over the listed columns (nil = all); fn returning false
// stops the scan. Batches are reused between calls; fn must not
// retain one.
func (v *View) ScanBatches(cols []int, pred expr.Predicate, batchSize int, fn func(b *vec.Batch) bool) {
	c := v.NewBatchScan(cols, pred, batchSize)
	for b := c.Next(); b != nil; b = c.Next() {
		if !fn(b) {
			return
		}
	}
}
