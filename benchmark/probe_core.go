package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	hana "repro"
)

// The probes time direct calls on tables forced into a known stage,
// and on the few internal kernels worth tracking, one file per module.
// They do fixed work on a small data set of their own, so their
// numbers are independent of the workload the traced run belongs to.

// probeRows is the size of the probes' tables; probeReps how often a
// probe repeats a millisecond-scale scan before taking the median.
const (
	probeRows = 50_000
	probeReps = 15
)

// probeEnv is what the probes share.
type probeEnv struct {
	r *runner
	d *dataset
	m map[string]float64
}

func (r *runner) runProbes(m map[string]float64) error {
	e := &probeEnv{r: r, m: m,
		d: genDataset(r.cfg.seed+7, r.cfg.scaled(probeRows), r.cfg.scaled(probeRows/2))}
	for _, probe := range []struct {
		name string
		fn   func(*probeEnv) error
	}{
		{"core", probeCore}, {"mvcc", probeMVCC}, {"wal", probeWAL}, {"persist", probePersist},
		{"merge", probeMerge}, {"dict", probeDict}, {"bitpack", probeBitpack},
		{"mainstore+compress", probeCompress}, {"engine", probeEngine}, {"sql", probeSQL}, {"calc", probeCalc},
	} {
		if err := probe.fn(e); err != nil {
			return fmt.Errorf("%s: %w", probe.name, err)
		}
	}
	return nil
}

// stage is a life-cycle stage a probe table is forced into.
type stage int

const (
	stageL1 stage = iota
	stageL2
	stageMain
)

// stagedTable creates an in-memory order table holding the probe rows
// in exactly one stage: single-row inserts and no merge leave them in
// the L1-delta, a bulk insert leaves them in the L2-delta, and a main
// merge after that moves them into main.
func (e *probeEnv) stagedTable(db *hana.DB, name string, st stage, cfg hana.TableConfig) (*hana.Table, time.Duration, error) {
	cfg.Name, cfg.Schema = name, ordersConfig(tableShape{}).Schema
	cfg.CheckUnique = true
	// Thresholds out of reach: nothing moves unless the probe moves it.
	cfg.L1MaxRows, cfg.L2MaxRows = 1<<30, 1<<30
	t, err := db.CreateTable(cfg)
	if err != nil {
		return nil, 0, err
	}
	tx := db.Begin(hana.TxnSnapshot)
	t0 := time.Now()
	if st == stageL1 {
		for _, row := range e.d.orders {
			if _, err := t.Insert(tx, row); err != nil {
				return nil, 0, err
			}
		}
	} else if _, err := t.BulkInsert(tx, e.d.orders); err != nil {
		return nil, 0, err
	}
	load := time.Since(t0)
	if err := db.Commit(tx); err != nil {
		return nil, 0, err
	}
	if st == stageMain {
		if _, err := t.MergeMain(); err != nil {
			return nil, 0, err
		}
	}
	return t, load, nil
}

// medianOf times fn reps times and returns the median duration.
func medianOf(reps int, fn func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	slices.Sort(ds)
	return ds[reps/2]
}

// perCall runs fn n times back to back and returns the mean time of
// one call: for calls too short to time one by one.
func perCall(n int, fn func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t0) / time.Duration(n)
}

func perSecond(n int, d time.Duration) float64 { return float64(n) / d.Seconds() }

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func probeCore(e *probeEnv) error {
	reg := hana.NewMetrics()
	db, err := hana.Open(hana.Options{Obs: reg})
	if err != nil {
		return err
	}
	defer db.Close()
	n := len(e.d.orders)
	var main *hana.Table
	for _, s := range []struct {
		st   stage
		name string
	}{{stageL1, "l1"}, {stageL2, "l2"}, {stageMain, "main"}} {
		t, load, err := e.stagedTable(db, "probe_"+s.name, s.st, hana.TableConfig{Compress: true, CompactDicts: true})
		if err != nil {
			return err
		}
		if s.st == stageL2 {
			e.m["core.bulk_insert_rows_per_s"] = perSecond(n, load)
		}
		get := perCall(e.r.cfg.scaled(20_000), func(i int) {
			v := t.View(nil)
			if v.Get(hana.Int(1+int64(i*7919)%int64(n))) == nil {
				err = errNotFound
			}
			v.Close()
		})
		if err != nil {
			return err
		}
		e.m["core.get_us."+s.name] = micros(get)
		scan := medianOf(probeReps, func() {
			v := t.View(nil)
			rows := 0
			v.ScanBatches([]int{colQuantity, colAmount}, nil, 0, func(b *hana.Batch) bool {
				rows += b.Rows()
				return true
			})
			v.Close()
			if rows != n {
				err = fmt.Errorf("scan of %s saw %d rows, want %d", s.name, rows, n)
			}
		})
		if err != nil {
			return err
		}
		e.m["core.scan_rows_per_s."+s.name] = perSecond(n, scan)
		main = t
	}

	e.m["core.view_open_ns"] = float64(perCall(e.r.cfg.scaled(100_000), func(int) { main.View(nil).Close() }).Nanoseconds())
	agg := medianOf(probeReps, func() {
		v := main.View(nil)
		_, err = v.AggregateNumeric(colRegion, []int{colQuantity, colAmount})
		v.Close()
	})
	if err != nil {
		return err
	}
	e.m["core.agg_rows_per_s"] = perSecond(n, agg)

	// One worker against the machine's worth, same morsel plan. The
	// default morsel (65 536 rows) would make this table a single
	// morsel, so the probe's table cuts eight.
	morsels, _, err := e.stagedTable(db, "probe_morsels", stageMain,
		hana.TableConfig{Compress: true, CompactDicts: true, ScanMorselRows: max(n/8, 1)})
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	parallel := func(w int) time.Duration {
		return medianOf(probeReps, func() {
			v := morsels.View(nil)
			err = v.ScanBatchesParallel(context.Background(), []int{colQuantity, colAmount}, nil, 0, w,
				func(_, _ int, _ *hana.Batch) bool { return true })
			v.Close()
		})
	}
	one, many := parallel(1), parallel(workers)
	if err != nil {
		return err
	}
	e.m["core.parallel_scan_speedup"] = one.Seconds() / many.Seconds()
	for _, s := range reg.Snapshot() {
		if s.Name == "hana_scan_worker_utilization" && s.Label("table") == morsels.Name() {
			e.m["core.scan_worker_utilization"] = s.Value
		}
	}

	// Single-row transactions on the main-stage table, no redo log:
	// what the write path costs before durability is added.
	gen := newRowGen(e.d.seed+1, len(e.d.customers))
	k := e.r.cfg.scaled(10_000)
	fresh, changed := make([][]hana.Value, k), make([][]hana.Value, k)
	for i := range fresh {
		fresh[i], changed[i] = gen.row(int64(n+1+i)), gen.row(int64(1+i))
	}
	write := func(fn func(tx *hana.Txn, i int) error) (time.Duration, error) {
		var werr error
		d := perCall(k, func(i int) {
			tx := db.Begin(hana.TxnSnapshot)
			if err := fn(tx, i); err != nil {
				werr = err
				db.Abort(tx)
				return
			}
			if err := db.Commit(tx); err != nil {
				werr = err
			}
		})
		return d, werr
	}
	ins, err := write(func(tx *hana.Txn, i int) error {
		_, err := main.Insert(tx, fresh[i])
		return err
	})
	if err != nil {
		return err
	}
	upd, err := write(func(tx *hana.Txn, i int) error {
		_, err := main.UpdateKey(tx, changed[i][colID], changed[i])
		return err
	})
	if err != nil {
		return err
	}
	del, err := write(func(tx *hana.Txn, i int) error {
		_, err := main.DeleteKey(tx, fresh[i][colID])
		return err
	})
	if err != nil {
		return err
	}
	e.m["core.insert_commit_us"], e.m["core.update_commit_us"], e.m["core.delete_commit_us"] = micros(ins), micros(upd), micros(del)
	return nil
}

func probeMVCC(e *probeEnv) error {
	db, err := hana.Open(hana.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	d := perCall(e.r.cfg.scaled(200_000), func(int) {
		if cerr := db.Commit(db.Begin(hana.TxnSnapshot)); cerr != nil {
			err = cerr
		}
	})
	e.m["mvcc.begin_commit_ns"] = float64(d.Nanoseconds())
	return err
}
