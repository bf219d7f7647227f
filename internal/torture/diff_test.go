package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/merge"
	"repro/internal/mvcc"
	"repro/internal/types"
	"repro/internal/vfs"
)

// keySpace bounds the primary-key domain so inserts, updates, and
// deletes collide often enough to exercise duplicate-key checks,
// tombstones, and re-inserts of merged-away keys.
const keySpace = 40

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

// TestDifferentialOracle runs a seeded randomized op sequence against
// the real engine and the map oracle, diffing visible state after
// every operation. Override the run with TORTURE_SEED / TORTURE_OPS
// (e.g. to replay a failure printed by a previous run).
func TestDifferentialOracle(t *testing.T) {
	seed := envInt("TORTURE_SEED", 1)
	nops := envInt("TORTURE_OPS", 1000)
	runDifferential(t, int64(seed), nops)
}

// TestDifferentialOracleSeeds adds breadth: several fixed seeds with
// shorter sequences, so distinct interleavings of merges, savepoints,
// and restarts are covered on every run.
func TestDifferentialOracleSeeds(t *testing.T) {
	seeds := []int64{2, 3, 5, 8, 13}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDifferential(t, seed, 300)
		})
	}
}

func runDifferential(t *testing.T, seed int64, nops int) {
	t.Helper()
	fs := vfs.NewMemFS()
	db, err := openTortureDB(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()

	specs := tortureTables()
	tabs := map[string]*core.Table{}
	orcs := map[string]*oracle{}
	for _, spec := range specs {
		tab, err := db.CreateTable(tortureConfig(spec))
		if err != nil {
			t.Fatal(err)
		}
		tabs[spec.name] = tab
		orcs[spec.name] = newOracle()
	}

	rng := rand.New(rand.NewSource(seed))
	var tx *mvcc.Txn

	fatal := func(op int, what string, format string, args ...any) {
		t.Helper()
		msg := fmt.Sprintf(format, args...)
		t.Fatalf("op %d (%s): %s\nreproduce with: TORTURE_SEED=%d TORTURE_OPS=%d go test ./internal/torture -run TestDifferentialOracle",
			op, what, msg, seed, nops)
	}

	// withTx runs fn inside the open transaction, or as an
	// auto-committed one; an fn error rolls the auto-commit back.
	withTx := func(fn func(tx *mvcc.Txn) error) error {
		if tx != nil {
			return fn(tx)
		}
		tmp := db.Begin(mvcc.TxnSnapshot)
		if err := fn(tmp); err != nil {
			db.Abort(tmp)
			return err
		}
		return db.Commit(tmp)
	}

	// drainBacklog reacts to an admission-control rejection the way a
	// client would: force the merge pipeline forward. ErrNotSettled is
	// expected while the session transaction holds unsettled versions.
	drainBacklog := func(op int, tab *core.Table) {
		if _, err := tab.MergeL1(); err != nil {
			fatal(op, "drain "+tab.Name(), "merge-l1: %v", err)
		}
		if _, err := tab.MergeMain(); err != nil && !errors.Is(err, merge.ErrNotSettled) {
			fatal(op, "drain "+tab.Name(), "merge-main: %v", err)
		}
	}

	makeRow := func(key int64) []types.Value {
		name := types.Str(fmt.Sprintf("n%02d", rng.Intn(50)))
		if rng.Intn(10) == 0 {
			name = types.Null
		}
		return []types.Value{types.Int(key), name, types.Int(rng.Int63n(1000))}
	}

	trace := os.Getenv("TORTURE_TRACE") != ""
	for op := 0; op < nops; op++ {
		spec := specs[rng.Intn(len(specs))]
		tab, orc := tabs[spec.name], orcs[spec.name]
		key := rng.Int63n(keySpace) + 1
		r := rng.Intn(100)
		if trace {
			t.Logf("op %d: r=%d table=%s key=%d txOpen=%v", op, r, spec.name, key, tx != nil)
		}
		switch {
		case r < 30: // insert
			row := makeRow(key)
			_, dup := orc.visible(key, true)
			err := withTx(func(tx *mvcc.Txn) error {
				_, err := tab.Insert(tx, row)
				return err
			})
			if errors.Is(err, core.ErrOverloaded) {
				// Admission control fired before any mutation: the engine
				// and oracle still agree; drain and move on.
				drainBacklog(op, tab)
				continue
			}
			if dup {
				if err == nil {
					fatal(op, "insert "+spec.name, "duplicate key %d accepted", key)
				}
			} else {
				if err != nil {
					fatal(op, "insert "+spec.name, "key %d: %v", key, err)
				}
				orc.insert(key, row)
				if tx == nil {
					orc.commit()
				}
			}
		case r < 45: // update (same key: delete-old + insert-new)
			row := makeRow(key)
			_, present := orc.visible(key, true)
			err := withTx(func(tx *mvcc.Txn) error {
				_, err := tab.UpdateKey(tx, types.Int(key), row)
				return err
			})
			if errors.Is(err, core.ErrOverloaded) {
				drainBacklog(op, tab)
				continue
			}
			if present {
				if err != nil {
					fatal(op, "update "+spec.name, "key %d: %v", key, err)
				}
				orc.insert(key, row)
				if tx == nil {
					orc.commit()
				}
			} else if err == nil {
				fatal(op, "update "+spec.name, "missing key %d updated", key)
			}
		case r < 57: // delete
			_, present := orc.visible(key, true)
			var n int
			err := withTx(func(tx *mvcc.Txn) error {
				var err error
				n, err = tab.DeleteKey(tx, types.Int(key))
				return err
			})
			if err != nil {
				fatal(op, "delete "+spec.name, "key %d: %v", key, err)
			}
			want := 0
			if present {
				want = 1
			}
			if n != want {
				fatal(op, "delete "+spec.name, "key %d deleted %d rows, oracle says %d", key, n, want)
			}
			if present {
				orc.delete(key)
				if tx == nil {
					orc.commit()
				}
			}
		case r < 70: // point read
			v := tab.View(tx)
			m := v.Get(types.Int(key))
			v.Close()
			row, ok := orc.visible(key, tx != nil)
			if ok != (m != nil) {
				fatal(op, "get "+spec.name, "key %d present=%v, oracle says %v", key, m != nil, ok)
			}
			if m != nil && fmt.Sprintf("%v", m.Row) != fmt.Sprintf("%v", row) {
				fatal(op, "get "+spec.name, "key %d = %v, oracle says %v", key, m.Row, row)
			}
		case r < 76: // L1→L2 merge
			if _, err := tab.MergeL1(); err != nil {
				fatal(op, "merge-l1 "+spec.name, "%v", err)
			}
		case r < 82: // L2→main merge (strategy per table)
			tab.RotateL2IfFull(1)
			if _, err := tab.MergeMain(); err != nil {
				fatal(op, "merge-main "+spec.name, "%v", err)
			}
		case r < 87: // savepoint
			if err := db.Savepoint(); err != nil {
				fatal(op, "savepoint", "%v", err)
			}
		case r < 91: // restart: close and recover; the open txn dies
			if err := db.Close(); err != nil {
				fatal(op, "close", "%v", err)
			}
			db, err = openTortureDB(fs)
			if err != nil {
				fatal(op, "reopen", "%v", err)
			}
			tx = nil
			for _, spec := range specs {
				tabs[spec.name] = db.Table(spec.name)
				if tabs[spec.name] == nil {
					fatal(op, "reopen", "table %s lost", spec.name)
				}
				orcs[spec.name].abort()
			}
		case r < 96: // begin / commit
			if tx == nil {
				tx = db.Begin(mvcc.TxnSnapshot)
			} else {
				if err := db.Commit(tx); err != nil {
					fatal(op, "commit", "%v", err)
				}
				tx = nil
				for _, o := range orcs {
					o.commit()
				}
			}
		default: // begin / abort
			if tx == nil {
				tx = db.Begin(mvcc.TxnSnapshot)
			} else {
				db.Abort(tx)
				tx = nil
				for _, o := range orcs {
					o.abort()
				}
			}
		}

		// Diff the full visible state after every op: the committed
		// view for outside readers and, when a transaction is open,
		// its own-writes view.
		for _, spec := range specs {
			tab, orc := tabs[spec.name], orcs[spec.name]
			got := dumpTable(tab, nil)
			want := orc.dump(false)
			if !rowsEqual(got, want) {
				fatal(op, "scan "+spec.name, "committed state diverged\n  engine %v\n  oracle %v", got, want)
			}
			if tx != nil {
				got := dumpTable(tab, tx)
				want := orc.dump(true)
				if !rowsEqual(got, want) {
					fatal(op, "txn-scan "+spec.name, "transaction view diverged\n  engine %v\n  oracle %v", got, want)
				}
			}
		}
	}
}

func rowsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
