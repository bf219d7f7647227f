package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	hana "repro"
)

// probePersist times a savepoint of a main-stage table and the
// recovery of that savepoint plus a short redo tail, and counts the
// redo records recovery replays (reported by the engine's logger).
func probePersist(e *probeEnv) error {
	dir := e.r.newDir("probe-persist")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	db, err := hana.Open(hana.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer db.Close()
	t, _, err := e.stagedTable(db, ordersTable, stageMain, hana.TableConfig{Compress: true, CompactDicts: true})
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := db.Savepoint(); err != nil {
		return err
	}
	e.m["persist.savepoint_s"] = time.Since(t0).Seconds()
	info, err := os.Stat(filepath.Join(dir, "data.db"))
	if err != nil {
		return err
	}
	e.m["persist.savepoint_bytes_per_user_byte"] = float64(info.Size()) / float64(e.d.userBytes)

	// The redo tail: single-row transactions past the savepoint.
	n := len(e.d.orders)
	gen := newRowGen(e.d.seed+2, len(e.d.customers))
	tail := e.r.cfg.scaled(2_000)
	for i := 0; i < tail; i++ {
		tx := db.Begin(hana.TxnSnapshot)
		if _, err := t.Insert(tx, gen.row(int64(n+1+i))); err != nil {
			return err
		}
		if err := db.Commit(tx); err != nil {
			return err
		}
	}
	if err := db.Close(); err != nil {
		return err
	}

	var replayed float64
	t0 = time.Now()
	re, err := hana.Open(hana.Options{Dir: dir, Logger: func(event string, kv ...any) {
		if event != "recovery-replay-done" {
			return
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if kv[i] == "records" {
				fmt.Sscan(fmt.Sprint(kv[i+1]), &replayed)
			}
		}
	}})
	if err != nil {
		return err
	}
	defer re.Close()
	took := time.Since(t0)
	v := re.Table(ordersTable).View(nil)
	rows := v.Count()
	v.Close()
	if rows != n+tail {
		return fmt.Errorf("recovered %d rows, want %d", rows, n+tail)
	}
	e.m["persist.recovery_rows_per_s"] = perSecond(rows, took)
	e.m["persist.replayed_records"] = replayed
	return re.Close()
}
