package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vec"
	"repro/internal/workload"
)

// E13Vectorized measures the vectorized read path (ISSUE 3's "E04"
// experiment; E04 was already taken by the re-sorting merge): a
// full-table scan-aggregate over the main store through the streaming
// batch pipeline (BatchTableScan + BatchHashAggregate), its batch-size
// sensitivity, and the effect of code-level predicate pushdown and
// limit pushdown. (The retired row-at-a-time comparator's last
// recorded number is in EXPERIMENTS.md.)
func E13Vectorized(cfg Config) (*benchfmt.Report, error) {
	n := cfg.n(1_000_000)
	rep := &benchfmt.Report{
		ID: "E13", Title: "Vectorized batch read path (§3.1)",
		Claim:  "block-wise decoding into typed vectors sits on a wide batch-size plateau, and pushdown keeps filtered-out or unneeded rows from ever being decoded",
		Header: []string{"pipeline", "rows", "scan-aggregate", "vs default"},
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

	// Group by region (low cardinality), sum quantity and amount —
	// the canonical OLAP scan-aggregate shape of §3.1.
	groupBy := []int{3}
	aggs := []engine.Agg{
		{Func: engine.AggCount},
		{Func: engine.AggSum, Col: 5},
		{Func: engine.AggSum, Col: 6},
	}
	measure := func(batchSize int, pred expr.Predicate) (time.Duration, int, error) {
		var groups int
		runtime.GC()
		d, err := medianOf(3, func() error {
			rows, err := engine.CollectBatches(&engine.BatchHashAggregate{
				In:      &engine.BatchTableScan{Table: t, BatchSize: batchSize, Pred: pred},
				GroupBy: groupBy, Aggs: aggs,
			})
			groups = len(rows)
			return err
		})
		return d, groups, err
	}
	batchD, groups, err := measure(0, nil)
	if err != nil {
		return nil, err
	}
	rep.AddRow("vectorized (BatchTableScan+BatchHashAggregate)", fmtInt(n), benchfmt.Dur(batchD), "1.0x")

	// Batch-size sensitivity: tiny batches pay per-batch overhead,
	// huge ones fall out of cache; the default sits on the plateau.
	for _, size := range []int{64, 16384} {
		d, g, err := measure(size, nil)
		if err != nil {
			return nil, err
		}
		if g != groups {
			return nil, fmt.Errorf("E13: batch=%d returned %d groups, default %d", size, g, groups)
		}
		rep.AddRow(fmt.Sprintf("vectorized, batch=%d", size), fmtInt(n), benchfmt.Dur(d),
			benchfmt.Factor(batchD.Seconds(), d.Seconds()))
	}

	// Selective scan: the pushed-down range is evaluated on dictionary
	// codes inside each stage, so the batch path never materializes
	// the filtered-out rows.
	pred := expr.Between{Col: 6, Lo: types.Float(1), Hi: types.Float(50), LoInc: true, HiInc: true}
	selD, _, err := measure(0, pred)
	if err != nil {
		return nil, err
	}
	rep.AddRow("vectorized, range predicate", fmtInt(n), benchfmt.Dur(selD),
		benchfmt.Factor(batchD.Seconds(), selD.Seconds()))

	// Limit pushdown: the limit stops pulling after the first batch, so
	// LIMIT 10 costs one decoded block, not a table scan.
	runtime.GC()
	limD, err := medianOf(3, func() error {
		_, err := engine.CollectBatches(&engine.BatchLimit{N: 10, In: &engine.BatchTableScan{Table: t}})
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.AddRow("vectorized, LIMIT 10 (no aggregate)", fmtInt(n), benchfmt.Dur(limD),
		benchfmt.Factor(batchD.Seconds(), limD.Seconds()))

	rep.AddNote("default batch size %d; every batch size returned %d groups", vec.DefaultBatchSize, groups)
	return rep, nil
}
