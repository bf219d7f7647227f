package main

import (
	"os"

	hana "repro"
	"repro/internal/wal"
)

// probeWAL times the redo log's two calls on a log of its own: Append
// of a typical single-row insert record, and Sync under the flush
// policy the workloads use (a buffer flush, no fsync).
func probeWAL(e *probeEnv) error {
	dir := e.r.newDir("probe-wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	rec := func(i int) *wal.Record {
		return &wal.Record{Type: wal.RecInsert, Txn: uint64(i + 1), Table: ordersTable,
			RowIDs: []hana.RowID{hana.RowID(i + 1)}, Rows: [][]hana.Value{e.d.orders[i%len(e.d.orders)]}}
	}
	appendCost := perCall(e.r.cfg.scaled(50_000), func(i int) {
		if aerr := log.Append(rec(i)); aerr != nil {
			err = aerr
		}
	})
	if err != nil {
		return err
	}
	e.m["wal.append_ns"] = float64(appendCost.Nanoseconds())
	// Append + Sync per commit, minus the append, is the flush.
	both := perCall(e.r.cfg.scaled(20_000), func(i int) {
		if aerr := log.Append(rec(i)); aerr != nil {
			err = aerr
		}
		if serr := log.Sync(); serr != nil {
			err = serr
		}
	})
	e.m["wal.sync_us"] = micros(both - appendCost)
	return err
}
