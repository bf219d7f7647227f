package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/calc"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments/rowstore"
	"repro/internal/mvcc"
	"repro/internal/types"
	"repro/internal/workload"
)

// E08Myth is the headline experiment: the unified column table
// sustains OLTP within a small factor of a classic update-in-place
// row store while dominating it on analytical scans — "ending the
// myth to use columnar technique only for OLAP-style workloads" (§5).
func E08Myth(cfg Config) (*benchfmt.Report, error) {
	preload := cfg.n(100_000)
	opsN := cfg.n(30_000)
	rep := &benchfmt.Report{
		ID: "E08", Title: "End of the column store myth (§1/§5)",
		Claim:  "the unified table is OLTP-competitive with a row store and far faster on OLAP aggregates",
		Header: []string{"engine", "OLTP ops/s", "point q (1k)", "OLAP aggregate", "heap bytes/row"},
	}

	gen := workload.NewOrderGen(cfg.Seed, 10_000, 1_000)
	preRows := gen.Rows(preload)
	ops := gen.Ops(opsN, workload.DefaultMix, int64(preload))
	rng := rand.New(rand.NewSource(cfg.Seed))

	// --- unified column table ---
	db, err := core.OpenDatabase(core.DBOptions{AutoMerge: true})
	if err != nil {
		return nil, err
	}
	ut, err := orderTable(db, "orders", core.TableConfig{
		CheckUnique: true, L1MaxRows: 10_000, L2MaxRows: 200_000, Strategy: core.MergeClassic,
	})
	if err != nil {
		db.Close()
		return nil, err
	}
	if err := bulkLoad(db, ut, preRows); err != nil {
		db.Close()
		return nil, err
	}
	if err := drainToMain(ut); err != nil {
		db.Close()
		return nil, err
	}
	oltpD, err := timeIt(func() error {
		for _, op := range ops {
			tx := db.Begin(mvcc.TxnSnapshot)
			var err error
			switch op.Kind {
			case workload.OpInsert:
				_, err = ut.Insert(tx, op.Row)
			case workload.OpUpdate:
				_, err = ut.UpdateKey(tx, types.Int(op.Key), op.Row)
			case workload.OpDelete:
				_, err = ut.DeleteKey(tx, types.Int(op.Key))
			case workload.OpPoint:
				v := ut.View(tx)
				v.Get(types.Int(op.Key))
				v.Close()
			}
			if err != nil && !errors.Is(err, mvcc.ErrWriteConflict) {
				// Updates/deletes may miss rows already deleted by the
				// stream; treat not-found updates as no-ops.
				if op.Kind != workload.OpUpdate {
					tx.Abort()
					return err
				}
			}
			if err != nil {
				db.Abort(tx)
				continue
			}
			if err := db.Commit(tx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		db.Close()
		return nil, err
	}
	pointD, err := medianOf(3, func() error {
		v := ut.View(nil)
		defer v.Close()
		for i := 0; i < 1000; i++ {
			v.Get(types.Int(1 + rng.Int63n(int64(preload))))
		}
		return nil
	})
	if err != nil {
		db.Close()
		return nil, err
	}
	// Let the asynchronous propagation catch up before the analytical
	// phase (the paper's scenario: merges run in the background, OLAP
	// hits the read-optimized main).
	if err := drainToMain(ut); err != nil {
		db.Close()
		return nil, err
	}
	olapUnified, err := medianOf(5, func() error {
		g := calc.NewGraph()
		agg := g.Aggregate(g.Table(ut), []int{3},
			engine.Agg{Func: engine.AggCount}, engine.Agg{Func: engine.AggSum, Col: 6})
		_, err := calc.Execute(g, agg, calc.Env{})
		return err
	})
	if err != nil {
		db.Close()
		return nil, err
	}
	st := ut.Stats()
	utBytes := st.L1Bytes + st.L2Bytes + st.MainBytes
	utRows := st.L1Rows + st.L2Rows + st.FrozenL2Rows + st.MainRows
	rep.AddRow("unified column table", benchfmt.Rate(opsN, oltpD), benchfmt.Dur(pointD),
		benchfmt.Dur(olapUnified), benchfmt.PerRow(utBytes, utRows))
	db.Close()

	// --- classic row store ---
	rs, err := rowstore.New(workload.OrderSchema(), nil)
	if err != nil {
		return nil, err
	}
	for _, r := range preRows {
		if _, err := rs.Insert(r); err != nil {
			return nil, err
		}
	}
	rsOltpD, err := timeIt(func() error {
		for _, op := range ops {
			switch op.Kind {
			case workload.OpInsert:
				if _, err := rs.Insert(op.Row); err != nil {
					return err
				}
			case workload.OpUpdate:
				if err := rs.Update(types.Int(op.Key), op.Row); err != nil && !errors.Is(err, rowstore.ErrNotFound) {
					return err
				}
			case workload.OpDelete:
				if err := rs.Delete(types.Int(op.Key)); err != nil && !errors.Is(err, rowstore.ErrNotFound) {
					return err
				}
			case workload.OpPoint:
				rs.Get(types.Int(op.Key))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rsPointD, err := medianOf(3, func() error {
		for i := 0; i < 1000; i++ {
			rs.Get(types.Int(1 + rng.Int63n(int64(preload))))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	olapRow, err := medianOf(5, func() error {
		// The symmetric fused scan-aggregate: no materialization
		// overhead on either side; the row store still reads full
		// records where the column table touches two columns.
		rowStoreAggregate(rs, 3, 6)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.AddRow("update-in-place row store", benchfmt.Rate(opsN, rsOltpD), benchfmt.Dur(rsPointD),
		benchfmt.Dur(olapRow), benchfmt.PerRow(rs.MemSize(), rs.Len()))

	rep.AddNote("OLTP slowdown of the column table: %s; OLAP speed-up: %s",
		benchfmt.Factor(oltpD.Seconds(), rsOltpD.Seconds()),
		benchfmt.Factor(olapRow.Seconds(), olapUnified.Seconds()))
	return rep, nil
}

// rowStoreAggregate is E08's row-store comparator query: count and
// float sum of sumCol grouped by groupCol, one pass over the records
// with a hash group table.
func rowStoreAggregate(rs *rowstore.Store, groupCol, sumCol int) {
	groups := map[types.Value][2]float64{}
	rs.Scan(func(_ types.RowID, row []types.Value) bool {
		g := groups[row[groupCol]]
		g[0]++
		if v := row[sumCol]; !v.IsNull() {
			g[1] += v.F
		}
		groups[row[groupCol]] = g
		return true
	})
}

// E09MVCC measures the two snapshot isolation levels (§1) and
// write-write conflict detection.
func E09MVCC(cfg Config) (*benchfmt.Report, error) {
	n := cfg.n(20_000)
	rep := &benchfmt.Report{
		ID: "E09", Title: "MVCC isolation levels (§1)",
		Claim:  "transaction- and statement-level snapshot isolation coexist; writers never block snapshot readers; conflicting writers abort instead of waiting",
		Header: []string{"metric", "value"},
	}
	db, err := memDB()
	if err != nil {
		return nil, err
	}
	defer db.Close()
	t, err := orderTable(db, "orders", core.TableConfig{CheckUnique: true})
	if err != nil {
		return nil, err
	}
	gen := workload.NewOrderGen(cfg.Seed, 10_000, 1_000)
	if err := bulkLoad(db, t, gen.Rows(n)); err != nil {
		return nil, err
	}

	// Mixed statements under each isolation level (median of 3 runs).
	for _, level := range []mvcc.IsolationLevel{mvcc.TxnSnapshot, mvcc.StmtSnapshot} {
		rng := rand.New(rand.NewSource(cfg.Seed))
		d, err := medianOf(3, func() error {
			tx := db.Begin(level)
			defer db.Commit(tx)
			for i := 0; i < 5000; i++ {
				v := t.View(tx)
				v.Get(types.Int(1 + rng.Int63n(int64(n))))
				v.Close()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rep.AddRow(fmt.Sprintf("5k point statements (%v)", level), benchfmt.Dur(d))
	}

	// Snapshot stability: a transaction-level reader is immune to a
	// concurrent committed write; a statement-level reader sees it.
	txReader := db.Begin(mvcc.TxnSnapshot)
	stReader := db.Begin(mvcc.StmtSnapshot)
	wtx := db.Begin(mvcc.TxnSnapshot)
	extra := gen.Rows(1)[0]
	if _, err := t.Insert(wtx, extra); err != nil {
		return nil, err
	}
	db.Commit(wtx)
	vt := t.View(txReader)
	txSaw := vt.Get(extra[0]) != nil
	vt.Close()
	vs := t.View(stReader)
	stSaw := vs.Get(extra[0]) != nil
	vs.Close()
	db.Commit(txReader)
	db.Commit(stReader)
	rep.AddRow("txn-level reader sees concurrent commit", fmt.Sprintf("%v (want false)", txSaw))
	rep.AddRow("stmt-level reader sees concurrent commit", fmt.Sprintf("%v (want true)", stSaw))

	// Write-write conflicts on hot keys.
	conflicts, attempts := 0, 500
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	for i := 0; i < attempts; i++ {
		key := types.Int(1 + rng.Int63n(50)) // hot range
		a := db.Begin(mvcc.TxnSnapshot)
		b := db.Begin(mvcc.TxnSnapshot)
		_, errA := t.DeleteKey(a, key)
		_, errB := t.DeleteKey(b, key)
		if errors.Is(errB, mvcc.ErrWriteConflict) || errors.Is(errA, mvcc.ErrWriteConflict) {
			conflicts++
		}
		db.Abort(a)
		db.Abort(b)
	}
	rep.AddRow("hot-key write-write conflicts detected", fmt.Sprintf("%d/%d", conflicts, attempts))
	if txSaw || !stSaw {
		return nil, fmt.Errorf("E09: isolation semantics violated")
	}
	return rep, nil
}

// E10Persistence measures write-once redo logging, savepoints, and
// recovery (Fig. 5).
func E10Persistence(cfg Config) (*benchfmt.Report, error) {
	n := cfg.n(30_000)
	rep := &benchfmt.Report{
		ID: "E10", Title: "Logging, savepoints, recovery (Fig. 5)",
		Claim:  "redo is logged once per record; savepoints bound the log and the recovery time",
		Header: []string{"configuration", "insert rate", "log size", "savepoint", "recovery"},
	}
	gen := workload.NewOrderGen(cfg.Seed, 10_000, 1_000)
	rows := gen.Rows(n)

	// In-memory baseline.
	{
		db, err := memDB()
		if err != nil {
			return nil, err
		}
		t, _ := orderTable(db, "orders", core.TableConfig{L1MaxRows: n + 1})
		d, err := timeIt(func() error { return insertRows(db, t, rows) })
		if err != nil {
			db.Close()
			return nil, err
		}
		rep.AddRow("no WAL (in-memory)", benchfmt.Rate(n, d), "-", "-", "-")
		db.Close()
	}

	// WAL without savepoint: recovery replays the whole log.
	runPersist := func(label string, savepointEvery int) error {
		dir, err := os.MkdirTemp("", "hana-e10")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		db, err := core.OpenDatabase(core.DBOptions{Dir: dir})
		if err != nil {
			return err
		}
		t, err := orderTable(db, "orders", core.TableConfig{L1MaxRows: n + 1})
		if err != nil {
			db.Close()
			return err
		}
		var spTotal time.Duration
		insD, err := timeIt(func() error {
			for i, r := range rows {
				tx := db.Begin(mvcc.TxnSnapshot)
				if _, err := t.Insert(tx, r); err != nil {
					return err
				}
				if err := db.Commit(tx); err != nil {
					return err
				}
				if savepointEvery > 0 && (i+1)%savepointEvery == 0 {
					d, err := timeIt(db.Savepoint)
					if err != nil {
						return err
					}
					spTotal += d
				}
			}
			return nil
		})
		if err != nil {
			db.Close()
			return err
		}
		var logSize int64
		if fi, err := os.Stat(filepath.Join(dir, "wal")); err == nil && fi.IsDir() {
			entries, _ := os.ReadDir(filepath.Join(dir, "wal"))
			for _, e := range entries {
				if info, err := e.Info(); err == nil {
					logSize += info.Size()
				}
			}
		}
		db.Close()
		recD, err := timeIt(func() error {
			db2, err := core.OpenDatabase(core.DBOptions{Dir: dir})
			if err != nil {
				return err
			}
			t2 := db2.Table("orders")
			if t2 == nil {
				return fmt.Errorf("E10: table lost")
			}
			v := t2.View(nil)
			count := v.Count()
			v.Close()
			db2.Close()
			if count != n {
				return fmt.Errorf("E10: recovered %d rows, want %d", count, n)
			}
			return nil
		})
		if err != nil {
			return err
		}
		sp := "-"
		if savepointEvery > 0 {
			sp = benchfmt.Dur(spTotal)
		}
		rep.AddRow(label, benchfmt.Rate(n, insD), benchfmt.Bytes(int(logSize)), sp, benchfmt.Dur(recD))
		return nil
	}
	if err := runPersist("WAL, no savepoint", 0); err != nil {
		return nil, err
	}
	if err := runPersist("WAL + savepoint every n/3", n/3); err != nil {
		return nil, err
	}
	rep.AddNote("recovery includes reopening the store, replaying redo, and verifying the row count")
	return rep, nil
}

// E11CalcGraph measures calculation-graph execution (Fig. 2/3):
// star-join aggregation, shared-subexpression reuse, and
// split/combine parallelism.
func E11CalcGraph(cfg Config) (*benchfmt.Report, error) {
	facts := cfg.n(200_000)
	rep := &benchfmt.Report{
		ID: "E11", Title: "Calc graph execution (Fig. 2/3)",
		Claim:  "calc graphs execute star joins, reuse shared subexpressions, and parallelize via split/combine",
		Header: []string{"plan", "latency"},
	}
	db, err := memDB()
	if err != nil {
		return nil, err
	}
	defer db.Close()
	sg := workload.NewStarGen(cfg.Seed, 2_000, 200, 365)
	mk := func(name string, schema *types.Schema, rows [][]types.Value) (*core.Table, error) {
		t, err := db.CreateTable(core.TableConfig{Name: name, Schema: schema, Compress: true, CompactDicts: true})
		if err != nil {
			return nil, err
		}
		if err := bulkLoad(db, t, rows); err != nil {
			return nil, err
		}
		return t, drainToMain(t)
	}
	sales, err := mk("sales", workload.SalesSchema(), sg.SaleRows(facts))
	if err != nil {
		return nil, err
	}
	custs, err := mk("customers", workload.CustomerSchema(), sg.CustomerRows())
	if err != nil {
		return nil, err
	}
	prods, err := mk("products", workload.ProductSchema(), sg.ProductRows())
	if err != nil {
		return nil, err
	}

	// Star join: revenue by region × category.
	starD, err := medianOf(3, func() error {
		g := calc.NewGraph()
		sj := g.StarJoin(g.Table(sales),
			calc.StarDim{In: g.Table(custs), KeyCol: 0, FactCol: 1, Payload: []int{2}},
			calc.StarDim{In: g.Table(prods), KeyCol: 0, FactCol: 2, Payload: []int{2}},
		)
		agg := g.Aggregate(sj, []int{6, 7}, engine.Agg{Func: engine.AggSum, Col: 5})
		_, err := calc.Execute(g, agg, calc.Env{})
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.AddRow("star join + group-by (2 dims)", benchfmt.Dur(starD))

	// Shared subexpression: an expensive script node (the stand-in for
	// the paper's imperative L/custom nodes) consumed by two
	// aggregates. With CSE it runs once; duplicated it runs per
	// consumer.
	bucketize := func(rows [][]types.Value) ([][]types.Value, error) {
		out := make([][]types.Value, len(rows))
		for i, r := range rows {
			out[i] = []types.Value{r[0], types.Int(int64(r[0].F / 100))}
		}
		return out, nil
	}
	buildCSE := func(shared bool) (*calc.Graph, *calc.Node) {
		g := calc.NewGraph()
		mkBranch := func() *calc.Node {
			// Projection narrows the scan; the script derives a bucket
			// column: output rows are (revenue, bucket).
			return g.Script(g.Project(g.Table(sales), 5), "bucketize", bucketize)
		}
		var left, right *calc.Node
		if shared {
			s := mkBranch()
			left, right = s, s
		} else {
			left, right = mkBranch(), mkBranch()
		}
		a := g.Aggregate(left, []int{1}, engine.Agg{Func: engine.AggCount})
		b := g.Aggregate(right, []int{1}, engine.Agg{Func: engine.AggSum, Col: 0})
		return g, g.Union(g.Limit(a, 5), g.Limit(b, 5))
	}
	sharedD, err := medianOf(3, func() error {
		g, root := buildCSE(true)
		_, err := calc.Execute(g, root, calc.Env{})
		return err
	})
	if err != nil {
		return nil, err
	}
	unsharedD, err := medianOf(3, func() error {
		g, root := buildCSE(false)
		_, err := calc.Execute(g, root, calc.Env{})
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.AddRow("two aggregates over shared script node (CSE)", benchfmt.Dur(sharedD))
	rep.AddRow("two aggregates, script node duplicated", benchfmt.Dur(unsharedD))

	// Split/combine widths.
	for _, width := range []int{1, 2, 4} {
		w := width
		d, err := medianOf(3, func() error {
			g := calc.NewGraph()
			src := g.Table(sales)
			parts := g.Split(src, w, 1)
			var branches []*calc.Node
			for _, p := range parts {
				branches = append(branches, g.Aggregate(p, []int{1}, engine.Agg{Func: engine.AggSum, Col: 5}))
			}
			comb := g.Combine(branches...)
			final := g.Aggregate(comb, []int{0}, engine.Agg{Func: engine.AggSum, Col: 1})
			_, err := calc.Execute(g, final, calc.Env{})
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.AddRow(fmt.Sprintf("split/combine width %d", w), benchfmt.Dur(d))
	}
	rep.AddNote("single-core host: split/combine shows overhead, not speed-up; the structure is what §2.1 describes")
	return rep, nil
}

// E12UnifiedAccess measures the unified access paths of §3.1: the
// global sorted dictionary over all three stages and unique-constraint
// checks through the stages' inverted indexes.
func E12UnifiedAccess(cfg Config) (*benchfmt.Report, error) {
	rep := &benchfmt.Report{
		ID: "E12", Title: "Unified table access (§3.1)",
		Claim:  "one sorted dictionary view and one constraint check span L1-delta, L2-delta, and main",
		Header: []string{"metric", "value"},
	}
	db, err := memDB()
	if err != nil {
		return nil, err
	}
	defer db.Close()
	t, err := orderTable(db, "orders", core.TableConfig{CheckUnique: true})
	if err != nil {
		return nil, err
	}
	gen := workload.NewOrderGen(cfg.Seed, 10_000, 1_000)
	// Spread rows: main, then L2, then L1.
	mainN, l2N, l1N := cfg.n(60_000), cfg.n(20_000), cfg.n(5_000)
	if err := bulkLoad(db, t, gen.Rows(mainN)); err != nil {
		return nil, err
	}
	if err := drainToMain(t); err != nil {
		return nil, err
	}
	if err := bulkLoad(db, t, gen.Rows(l2N)); err != nil {
		return nil, err
	}
	if err := insertRows(db, t, gen.Rows(l1N)); err != nil {
		return nil, err
	}
	st := t.Stats()
	rep.AddRow("stage spread (L1/L2/main)", fmt.Sprintf("%d / %d / %d", st.L1Rows, st.L2Rows+st.FrozenL2Rows, st.MainRows))

	d, err := medianOf(3, func() error {
		dict := t.GlobalSortedDict(1) // customer column
		if dict.Len() == 0 {
			return fmt.Errorf("empty global dictionary")
		}
		// Verify sortedness across stage boundaries.
		for i := 1; i < dict.Len(); i++ {
			if types.Compare(dict.At(uint32(i-1)), dict.At(uint32(i))) >= 0 {
				return fmt.Errorf("global dictionary not sorted")
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.AddRow("global sorted dictionary (customer col, build+verify)", benchfmt.Dur(d))

	// Unique-checked insert rate with keys spanning all stages.
	checkN := cfg.n(10_000)
	fresh := gen.Rows(checkN)
	insD, err := timeIt(func() error { return insertRows(db, t, fresh) })
	if err != nil {
		return nil, err
	}
	rep.AddRow("unique-checked insert rate", benchfmt.Rate(checkN, insD))

	// Duplicate inserts against every stage are rejected.
	dupKeys := []int64{1, int64(mainN + 1), int64(mainN + l2N + 1)}
	for _, k := range dupKeys {
		tx := db.Begin(mvcc.TxnSnapshot)
		row := gen.Rows(1)[0]
		row[0] = types.Int(k)
		if _, err := t.Insert(tx, row); !errors.Is(err, core.ErrDuplicateKey) {
			db.Abort(tx)
			return nil, fmt.Errorf("E12: duplicate key %d not rejected (err=%v)", k, err)
		}
		db.Abort(tx)
	}
	rep.AddRow("duplicate rejection across stages", "3/3 rejected")

	// Point queries resolving in each stage.
	rng := rand.New(rand.NewSource(cfg.Seed))
	total := mainN + l2N + l1N
	pq, err := medianOf(3, func() error {
		v := t.View(nil)
		defer v.Close()
		for i := 0; i < 1000; i++ {
			v.Get(types.Int(1 + rng.Int63n(int64(total))))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.AddRow("point queries across stages (1k keys)", benchfmt.Dur(pq))
	return rep, nil
}
