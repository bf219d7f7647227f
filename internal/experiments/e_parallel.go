package experiments

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/vec"
	"repro/internal/workload"
)

// E15ParallelScan measures morsel-parallel scan scaling (ISSUE 6):
// the same 1M-row scan dispatched over 1, 2, 4, and GOMAXPROCS
// workers, first as a raw batch scan (the kernel the worker pool
// amortizes) and then as the scan-aggregate the calc layer emits. The
// acceptance floor is a 2x speedup at 4 workers over the sequential
// path. The gating measurement of the same claim is the benchmark's
// core.parallel_scan_speedup cell (BENCHMARK.json).
func E15ParallelScan(cfg Config) (*benchfmt.Report, error) {
	n := cfg.n(1_000_000)
	rep := &benchfmt.Report{
		ID: "E15", Title: "Morsel-parallel scan scaling (§3.1)",
		Claim:  "splitting the unified-table scan into fixed-size morsels over a worker pool scales scan-heavy queries with cores",
		Header: []string{"pipeline", "workers", "rows", "time", "speedup"},
	}

	db, err := memDB()
	if err != nil {
		return nil, err
	}
	defer db.Close()
	t, err := orderTable(db, "orders", core.TableConfig{L2MaxRows: 2 * n})
	if err != nil {
		return nil, err
	}
	gen := workload.NewOrderGen(cfg.Seed, 10_000, 1_000)
	if err := bulkLoad(db, t, gen.Rows(n)); err != nil {
		return nil, err
	}
	if err := drainToMain(t); err != nil {
		return nil, err
	}

	workerSet := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g > 4 {
		workerSet = append(workerSet, g)
	}

	// Raw morsel-parallel scan: decode every batch, count rows. The
	// callback does no per-row work, so this isolates the scan kernel
	// plus dispatch overhead. Each run pins its own view (views hold
	// the table read latch).
	var scanBase, scan4 time.Duration
	for _, w := range workerSet {
		w := w
		runtime.GC()
		d, err := medianOf(3, func() error {
			v := t.View(nil)
			defer v.Close()
			var rows atomic.Int64
			err := v.ScanBatchesParallel(nil, nil, nil, vec.DefaultBatchSize, w,
				func(_, _ int, b *vec.Batch) bool {
					rows.Add(int64(b.Rows()))
					return true
				})
			if err != nil {
				return err
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		switch w {
		case 1:
			scanBase = d
		case 4:
			scan4 = d
		}
		rep.AddRow("raw batch scan", fmtInt(w), fmtInt(n), benchfmt.Dur(d),
			benchfmt.Factor(scanBase.Seconds(), d.Seconds()))
	}

	// Scan-aggregate: the BatchHashAggregate drain the calc layer
	// fuses onto parallel tables — per-worker partial accumulators
	// merged in first-seen order at combine.
	groupBy := []int{3}
	aggs := []engine.Agg{
		{Func: engine.AggCount},
		{Func: engine.AggSum, Col: 5},
		{Func: engine.AggSum, Col: 6},
	}
	var aggBase time.Duration
	for _, w := range workerSet {
		w := w
		runtime.GC()
		d, err := medianOf(3, func() error {
			_, err := engine.CollectBatches(&engine.BatchHashAggregate{
				In:      &engine.BatchTableScan{Table: t, Workers: w},
				GroupBy: groupBy, Aggs: aggs,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		if w == 1 {
			aggBase = d
		}
		rep.AddRow("scan-aggregate", fmtInt(w), fmtInt(n), benchfmt.Dur(d),
			benchfmt.Factor(aggBase.Seconds(), d.Seconds()))
	}

	rep.AddNote("raw-scan speedup at 4 workers: %s on GOMAXPROCS=%d (acceptance floor 2x needs >=4 cores; on a single-core host the interesting number is the overhead, i.e. how close to 1.0x the pool stays)",
		benchfmt.Factor(scanBase.Seconds(), scan4.Seconds()), runtime.GOMAXPROCS(0))
	rep.AddNote("worker counts above the morsel count are clamped; ScanWorkers=1 is the sequential single-cursor path")
	return rep, nil
}
