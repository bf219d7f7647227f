package torture

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mvcc"
	"repro/internal/types"
	"repro/internal/vfs"
)

// crashStep is one unit of the crash workload. Each step performs at
// most one commit, so a crash anywhere inside it must leave the
// database in either the pre-step or the post-step visible state —
// never in between. Structural steps (merges, savepoints) change no
// visible state at all.
type crashStep struct {
	name string
	run  func(db *core.Database) error
}

// commitStep wraps fn in a transaction that commits at the end.
func commitStep(name string, fn func(db *core.Database, tx *mvcc.Txn) error) crashStep {
	return crashStep{name: name, run: func(db *core.Database) error {
		tx := db.Begin(mvcc.TxnSnapshot)
		if err := fn(db, tx); err != nil {
			db.Abort(tx)
			return err
		}
		return db.Commit(tx)
	}}
}

func crow(key int64, name string, qty int64) []types.Value {
	return []types.Value{types.Int(key), types.Str(name), types.Int(qty)}
}

func insertStep(table string, keys ...int64) crashStep {
	return commitStep(fmt.Sprintf("insert-%s-%v", table, keys), func(db *core.Database, tx *mvcc.Txn) error {
		t := db.Table(table)
		for _, k := range keys {
			if _, err := t.Insert(tx, crow(k, fmt.Sprintf("k%d", k), k*10)); err != nil {
				return err
			}
		}
		return nil
	})
}

func deleteStep(table string, key int64) crashStep {
	return commitStep(fmt.Sprintf("delete-%s-%d", table, key), func(db *core.Database, tx *mvcc.Txn) error {
		_, err := db.Table(table).DeleteKey(tx, types.Int(key))
		return err
	})
}

func updateStep(table string, key int64) crashStep {
	return commitStep(fmt.Sprintf("update-%s-%d", table, key), func(db *core.Database, tx *mvcc.Txn) error {
		_, err := db.Table(table).UpdateKey(tx, types.Int(key), crow(key, "upd", key*100))
		return err
	})
}

func mergeL1Step() crashStep {
	return crashStep{name: "merge-l1-all", run: func(db *core.Database) error {
		for _, t := range db.Tables() {
			if _, err := t.MergeL1(); err != nil {
				return err
			}
		}
		return nil
	}}
}

func mergeMainStep(table string) crashStep {
	return crashStep{name: "merge-main-" + table, run: func(db *core.Database) error {
		t := db.Table(table)
		t.RotateL2IfFull(1)
		_, err := t.MergeMain()
		return err
	}}
}

func savepointStep(n int) crashStep {
	return crashStep{name: fmt.Sprintf("savepoint-%d", n), run: func(db *core.Database) error {
		return db.Savepoint()
	}}
}

// crashWorkload drives every table through the full unified-table
// life cycle — L1 inserts, L1→L2 merges, L2→main merges of all three
// flavors, deletes and updates across stage boundaries — with two
// complete savepoint cycles, so the sweep crashes inside every I/O
// step of savepoint serialization, log rotation, and log truncation.
func crashWorkload() []crashStep {
	var steps []crashStep
	for _, spec := range tortureTables() {
		spec := spec
		steps = append(steps, crashStep{name: "create-" + spec.name, run: func(db *core.Database) error {
			_, err := db.CreateTable(tortureConfig(spec))
			return err
		}})
	}
	for _, spec := range tortureTables() {
		steps = append(steps, insertStep(spec.name, 1, 2, 3, 4, 5, 6))
	}
	steps = append(steps,
		deleteStep("t_classic", 2),
		updateStep("t_resort", 3),
		mergeL1Step(),
		savepointStep(1),
		insertStep("t_classic", 7, 8),
		insertStep("t_resort", 7, 8),
		insertStep("t_partial", 7, 8),
		mergeL1Step(),
		mergeMainStep("t_classic"),
		mergeMainStep("t_resort"),
		mergeMainStep("t_partial"),
		deleteStep("t_partial", 5),
		updateStep("t_classic", 4),
		savepointStep(2),
		insertStep("t_classic", 9, 10),
		deleteStep("t_resort", 1),
	)
	return steps
}

// TestCrashTorture simulates a crash at every I/O step of the
// workload, in three flavors per step position — clean (the crashing
// op does nothing), torn (a prefix of the crashing write is applied),
// and power-loss (only fsynced data survives) — then recovers from
// the crash image and requires the visible state to be exactly the
// pre- or post-step state. A recovered database must also accept new
// work that survives a further clean restart (a torn tail must not
// orphan post-recovery appends).
func TestCrashTorture(t *testing.T) {
	steps := crashWorkload()

	// Fault-free pass: learn the op budget and the oracle state after
	// each step.
	base := vfs.NewFaultFS(vfs.NewMemFS(), vfs.Plan{})
	db, err := openTortureDB(base)
	if err != nil {
		t.Fatal(err)
	}
	snaps := []map[string][]string{dumpState(db)}
	for _, s := range steps {
		if err := s.run(db); err != nil {
			t.Fatalf("fault-free %s: %v", s.name, err)
		}
		snaps = append(snaps, dumpState(db))
	}
	total := base.OpCount()
	db.Close()
	if total < int64(len(steps)) {
		t.Fatalf("suspiciously few I/O ops: %d", total)
	}
	t.Logf("workload: %d steps, %d I/O ops, sweeping a crash into each", len(steps), total)

	stride := int64(1)
	if testing.Short() {
		stride = 5
	}
	for k := int64(1); k <= total; k += stride {
		mode := k % 3
		plan := vfs.Plan{FailAfter: k}
		if mode == 1 {
			plan.TornBytes = 1 + int(k%7)
		}
		fs := vfs.NewMemFS()
		ffs := vfs.NewFaultFS(fs, plan)

		completed := 0
		db, err := openTortureDB(ffs)
		if err == nil {
			for _, s := range steps {
				if err = s.run(db); err != nil {
					break
				}
				completed++
			}
		}
		if err == nil {
			t.Fatalf("crash op %d: workload finished without error (ops drifted from fault-free pass)", k)
		}
		if !ffs.Crashed() {
			t.Fatalf("crash op %d after step %d: workload failed before the crash point: %v", k, completed, err)
		}

		// The crash image: everything applied (clean/torn) or only
		// what was fsynced (power loss).
		img := fs.Clone()
		if mode == 2 {
			img = fs.DurableClone()
		}
		db2, err := openTortureDB(img)
		if err != nil {
			t.Fatalf("crash op %d (mode %d) after step %d (%s): recovery failed: %v",
				k, mode, completed, steps[completed].name, err)
		}
		got := dumpState(db2)
		if !statesEqual(got, snaps[completed]) && !statesEqual(got, snaps[completed+1]) {
			t.Fatalf("crash op %d (mode %d) inside step %d (%s): recovered state is neither pre- nor post-step\nvs pre:\n%svs post:\n%s",
				k, mode, completed, steps[completed].name,
				diffStates(snaps[completed], got), diffStates(snaps[completed+1], got))
		}

		// Epilogue: the recovered database must accept new durable
		// work, and that work must survive another clean restart (this
		// is what a non-truncated torn log tail silently breaks).
		if _, err := db2.CreateTable(core.TableConfig{Name: "epi", Schema: tortureSchema(), CheckUnique: true}); err != nil {
			t.Fatalf("crash op %d: post-recovery create: %v", k, err)
		}
		epi := commitStep("epi", func(db *core.Database, tx *mvcc.Txn) error {
			for _, key := range []int64{101, 102, 103} {
				if _, err := db.Table("epi").Insert(tx, crow(key, "epi", key)); err != nil {
					return err
				}
			}
			return nil
		})
		if err := epi.run(db2); err != nil {
			t.Fatalf("crash op %d: post-recovery insert: %v", k, err)
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("crash op %d: post-recovery close: %v", k, err)
		}
		db3, err := openTortureDB(img)
		if err != nil {
			t.Fatalf("crash op %d: second recovery: %v", k, err)
		}
		dump3 := dumpState(db3)
		if len(dump3["epi"]) != 3 {
			t.Fatalf("crash op %d: post-recovery rows lost across restart: epi=%v", k, dump3["epi"])
		}
		delete(dump3, "epi")
		if !statesEqual(dump3, got) {
			t.Fatalf("crash op %d: state changed across post-recovery restart:\n%s", k, diffStates(got, dump3))
		}
		db3.Close()
	}
}
