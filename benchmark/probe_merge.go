package main

import (
	"time"

	hana "repro"
)

// probeMerge times the L1→L2 merge and the three L2→main merge
// variants through the table's own merge entry points: a main of
// probeRows rows absorbs a delta a fifth its size. The phase shares
// and the column workers' utilization are the classic merge's.
func probeMerge(e *probeEnv) error {
	db, err := hana.Open(hana.Options{})
	if err != nil {
		return err
	}
	defer db.Close()

	l1, _, err := e.stagedTable(db, "merge_l1", stageL1, hana.TableConfig{})
	if err != nil {
		return err
	}
	t0 := time.Now()
	moved, err := l1.MergeL1()
	if err != nil {
		return err
	}
	e.m["merge.l1_rows_per_s"] = perSecond(moved, time.Since(t0))

	n := len(e.d.orders)
	gen := newRowGen(e.d.seed+3, len(e.d.customers))
	delta := make([][]hana.Value, n/5)
	for i := range delta {
		delta[i] = gen.row(int64(n + 1 + i))
	}
	for _, v := range []struct {
		name     string
		strategy hana.MergeStrategy
	}{{"classic", hana.MergeClassic}, {"resort", hana.MergeResort}, {"partial", hana.MergePartial}} {
		t, _, err := e.stagedTable(db, "merge_"+v.name, stageMain, hana.TableConfig{Strategy: v.strategy, Compress: true, CompactDicts: true})
		if err != nil {
			return err
		}
		tx := db.Begin(hana.TxnSnapshot)
		if _, err := t.BulkInsert(tx, delta); err != nil {
			return err
		}
		if err := db.Commit(tx); err != nil {
			return err
		}
		t0 := time.Now()
		st, err := t.MergeMain()
		if err != nil {
			return err
		}
		e.m["merge.main_rows_per_s."+v.name] = perSecond(st.RowsMain+st.RowsDelta, time.Since(t0))
		if v.strategy == hana.MergeClassic {
			total := (st.CollectDur + st.ColumnDur + st.BuildDur).Seconds()
			e.m["merge.collect_share"] = ratio(st.CollectDur.Seconds(), total)
			e.m["merge.column_share"] = ratio(st.ColumnDur.Seconds(), total)
			e.m["merge.build_share"] = ratio(st.BuildDur.Seconds(), total)
			e.m["merge.worker_utilization"] = ratio(st.ColumnBusy.Seconds(), st.ColumnDur.Seconds()*float64(st.WorkersUsed))
		}
	}
	return nil
}
