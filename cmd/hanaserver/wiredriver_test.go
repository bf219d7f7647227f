package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hana "repro"
	wire "repro/internal/client"
	"repro/internal/types"
	"repro/internal/workload"
)

// The wire driver is the over-the-wire oracle workload: N writer
// sessions replay a seeded insert/update/delete/point mix while one
// analyst session alternates the region scan-aggregate with MERGE, all
// through internal/client against a live server. Writer w owns the keys
// congruent to w+1 modulo N and keeps its own RNG streams and oracle
// (the per-client state of SNIPPETS.md Snippet 3), so the committed
// end state is a pure function of the seed whatever the interleaving,
// and verify checks it row by row.

// verbSet encodes the driver's operations as protocol commands: SQL
// PREPARE/EXECUTE, or the legacy line verbs.
type verbSet struct {
	create   string
	prepared map[string]string // registered on every client, replayed on reconnect
	insert   func(row []types.Value) string
	update   func(row []types.Value) string
	del      func(key int64) string
	point    func(key int64) string
	scanAgg  string
}

func sqlVerbs(table string) verbSet {
	return verbSet{
		create: "SQL CREATE TABLE " + table + " (id BIGINT PRIMARY KEY, customer VARCHAR NOT NULL, " +
			"product VARCHAR NOT NULL, region VARCHAR NOT NULL, status VARCHAR NOT NULL, " +
			"quantity BIGINT NOT NULL, amount DOUBLE NOT NULL)",
		prepared: map[string]string{
			"ins": "INSERT INTO " + table + " VALUES (?, ?, ?, ?, ?, ?, ?)",
			"upd": "UPDATE " + table + " SET customer = ?, product = ?, region = ?, status = ?, " +
				"quantity = ?, amount = ? WHERE id = ?",
			"del": "DELETE FROM " + table + " WHERE id = ?",
			"pt":  "SELECT id FROM " + table + " WHERE id = ?",
		},
		insert: func(row []types.Value) string { return "EXECUTE ins " + wireRow(row) },
		update: func(row []types.Value) string {
			return fmt.Sprintf("EXECUTE upd %s %d", wireRow(row[1:]), row[0].I)
		},
		del:     func(key int64) string { return fmt.Sprintf("EXECUTE del %d", key) },
		point:   func(key int64) string { return fmt.Sprintf("EXECUTE pt %d", key) },
		scanAgg: "SQL SELECT region, COUNT(*), SUM(quantity), SUM(amount) FROM " + table + " GROUP BY region",
	}
}

func lineVerbs(table string) verbSet {
	return verbSet{
		create: "CREATE " + table + " id:INT customer:VARCHAR product:VARCHAR region:VARCHAR " +
			"status:VARCHAR quantity:INT amount:DOUBLE KEY 0",
		insert: func(row []types.Value) string { return "INSERT " + table + " " + wireRow(row) },
		update: func(row []types.Value) string {
			return fmt.Sprintf("UPDATE %s %d %s", table, row[0].I, wireRow(row))
		},
		del:     func(key int64) string { return fmt.Sprintf("DELETE %s %d", table, key) },
		point:   func(key int64) string { return fmt.Sprintf("GET %s %d", table, key) },
		scanAgg: "AGG " + table + " 3 6", // SUM(amount) GROUP BY region
	}
}

// wireRow renders values in the protocol's token syntax.
func wireRow(row []types.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.String()
		if v.Kind == types.KindString {
			parts[i] = "'" + v.S + "'"
		}
	}
	return strings.Join(parts, " ")
}

type driveConfig struct {
	addr, table           string
	verbs                 func(table string) verbSet
	writers, ops, preload int
	seed                  int64
	mix                   workload.Mix
	dial                  func(addr string) (net.Conn, error) // session transport; nil = plain TCP
	maxRetries            int                                 // per-op retry budget; < 0 = unlimited
}

// driver holds one finished run: the writers' oracles, the clean
// control connection verify reads through, and the run's totals.
type driver struct {
	cfg     driveConfig
	ctl     *wire.Client
	writers []*writer

	acked, rejected, scans int
	reconnects, retries    uint64
}

// writer is one session's private state, touched only by its own
// goroutine while the run lasts.
type writer struct {
	w, n            int64
	c               *wire.Client
	v               verbSet
	mix             workload.Mix
	gen             *workload.OrderGen
	rng             *rand.Rand
	keys            workload.KeyChooser
	live            []int64
	nextID          int64
	oracle          map[int64][]types.Value
	acked, rejected int
}

// dialWire connects a session client, or with clean set a control
// client (plain TCP, default retry budget), and registers v's prepared
// statements on it.
func dialWire(t *testing.T, cfg driveConfig, v verbSet, clean bool, seed int64) *wire.Client {
	t.Helper()
	wc := wire.Config{Addr: cfg.addr, Dial: cfg.dial, MaxRetries: cfg.maxRetries, Seed: seed}
	if clean {
		wc.Dial, wc.MaxRetries = nil, 0
	}
	c, err := wire.Dial(wc)
	if err != nil {
		t.Fatalf("dial %s: %v", cfg.addr, err)
	}
	t.Cleanup(func() { c.Close() })
	for name, text := range v.prepared {
		if err := c.Prepare(name, text); err != nil {
			t.Fatalf("prepare %s: %v", name, err)
		}
	}
	return c
}

// drive creates and preloads cfg.table over a clean control
// connection, then runs the writers and the analyst to completion.
func drive(t *testing.T, cfg driveConfig) *driver {
	t.Helper()
	v := cfg.verbs(cfg.table)
	if _, err := dialWire(t, cfg, verbSet{}, true, cfg.seed).DoOK(v.create); err != nil {
		t.Fatalf("create: %v", err)
	}
	d := &driver{cfg: cfg, ctl: dialWire(t, cfg, v, true, cfg.seed+1)}
	preRows := workload.NewOrderGen(cfg.seed, 10_000, 2000).Rows(cfg.preload)
	setup := []string{"BEGIN"}
	for _, row := range preRows {
		setup = append(setup, v.insert(row))
	}
	for _, cmd := range append(setup, "COMMIT", "MERGE "+cfg.table) {
		if _, err := d.ctl.DoOK(cmd); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}

	n := int64(cfg.writers)
	keySpace := uint64(cfg.preload + cfg.writers*cfg.ops)
	for w := int64(0); w < n; w++ {
		wr := &writer{w: w, n: n, v: v, mix: cfg.mix,
			c:      dialWire(t, cfg, v, false, cfg.seed+104729*(w+2)),
			gen:    workload.NewOrderGen(cfg.seed+7919*(w+1), 10_000, 2000),
			rng:    rand.New(rand.NewSource(cfg.seed*31 + w)),
			keys:   workload.NewZipfian(cfg.seed+104729*(w+1), keySpace, workload.DefaultZipfS),
			nextID: int64(cfg.preload) + 1,
			oracle: map[int64][]types.Value{},
		}
		for (wr.nextID-1)%n != w {
			wr.nextID++
		}
		for id := w + 1; id <= int64(cfg.preload); id += n {
			wr.oracle[id] = preRows[id-1]
			wr.live = append(wr.live, id)
		}
		d.writers = append(d.writers, wr)
	}
	analyst := dialWire(t, cfg, v, false, cfg.seed+2)

	var writersWG, analystWG sync.WaitGroup
	errs := make([]error, len(d.writers)+1)
	var done atomic.Bool
	for i, wr := range d.writers {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for op := 0; op < cfg.ops && errs[i] == nil; op++ {
				errs[i] = wr.step()
			}
		}()
	}
	analystWG.Add(1)
	go func() { // scans and merges until the writers are done, and at least once
		defer analystWG.Done()
		for d.scans == 0 || !done.Load() {
			lines, err := analyst.DoRetry(v.scanAgg)
			if err == nil && lines[len(lines)-1] != "END" {
				err = fmt.Errorf("scan-aggregate: %s", lines[len(lines)-1])
			}
			if err == nil {
				_, err = analyst.DoRetryOK("MERGE " + cfg.table)
			}
			if err != nil {
				errs[len(errs)-1] = err
				return
			}
			d.scans++
		}
	}()
	writersWG.Wait()
	done.Store(true)
	analystWG.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatalf("drive %s (seed %d): %v", cfg.table, cfg.seed, err)
	}

	d.reconnects, d.retries = analyst.Stats()
	for _, wr := range d.writers {
		rc, rt := wr.c.Stats()
		d.reconnects, d.retries = d.reconnects+rc, d.retries+rt
		d.acked, d.rejected = d.acked+wr.acked, d.rejected+wr.rejected
	}
	return d
}

// step issues the writer's next operation from the mix. Updates and
// deletes target its own live keys; point reads range over the whole
// key space along a Zipfian, and a read of an owned key must agree
// with the oracle.
func (wr *writer) step() error {
	p, writes := wr.rng.Intn(100), wr.mix.InsertPct+wr.mix.UpdatePct+wr.mix.DeletePct
	switch {
	case p < wr.mix.InsertPct || len(wr.live) == 0 && p < writes:
		id := wr.nextID
		wr.nextID += wr.n
		row := wr.gen.Row()
		row[0] = types.Int(id)
		if ok, err := wr.write(wr.v.insert(row), true); !ok {
			return err
		}
		wr.oracle[id] = row
		wr.live = append(wr.live, id)
	case p < wr.mix.InsertPct+wr.mix.UpdatePct:
		row := wr.gen.Row()
		row[0] = types.Int(wr.live[wr.rng.Intn(len(wr.live))])
		if ok, err := wr.write(wr.v.update(row), false); !ok {
			return err
		}
		wr.oracle[row[0].I] = row
	case p < writes:
		i := wr.rng.Intn(len(wr.live))
		if ok, err := wr.write(wr.v.del(wr.live[i]), true); !ok {
			return err
		}
		delete(wr.oracle, wr.live[i])
		wr.live[i] = wr.live[len(wr.live)-1]
		wr.live = wr.live[:len(wr.live)-1]
	default:
		key := 1 + int64(wr.keys.Next())
		lines, err := wr.c.DoRetry(wr.v.point(key))
		if err != nil {
			return err
		}
		if last := lines[len(lines)-1]; last != "END" {
			return fmt.Errorf("point read %d: %s", key, last)
		}
		if _, want := wr.oracle[key]; (key-1)%wr.n == wr.w && want != (len(lines) > 1) {
			return fmt.Errorf("point read of owned key %d: found=%v, oracle=%v", key, len(lines) > 1, want)
		}
	}
	return nil
}

// write sends one autocommit write and reports whether it took effect.
// Retry makes outcomes ambiguous: an attempt whose answer was lost may
// have run, or may still be running on the dropped connection. Writers
// own disjoint keys, so a write-write conflict can only be with such an
// attempt of the writer's own (wait for it and resend), and a retried
// insert that meets a duplicate key, or a retried delete that finds no
// row, is the writer's own earlier success (reconcile). An
// admission-control rejection on a first delivery has no effect; an
// update that changes nothing is always a bug.
func (wr *writer) write(cmd string, reconcile bool) (bool, error) {
	_, before := wr.c.Stats()
	line, err := wr.c.DoRetryOK(cmd)
	resent := false
	for i := 0; i < 100 && err != nil && strings.Contains(err.Error(), "write-write conflict"); i++ {
		time.Sleep(time.Millisecond)
		line, err = wr.c.DoRetryOK(cmd)
		resent = true
	}
	_, after := wr.c.Stats()
	retried := after > before || resent
	var serr *wire.ServerError
	unchanged := line == "OK 0" || errors.As(err, &serr) &&
		(strings.Contains(serr.Msg, "duplicate key") || strings.Contains(serr.Msg, "not found"))
	switch {
	case err == nil && line != "OK 0", reconcile && retried && unchanged:
		wr.acked++
		return true, nil
	case !retried && serr != nil && strings.Contains(serr.Msg, "overloaded"):
		wr.rejected++
		return false, nil
	case err == nil:
		return false, fmt.Errorf("%s: changed nothing", cmd)
	}
	return false, fmt.Errorf("%s: %w", cmd, err)
}

// verify diffs the table, read row by row through SQL SELECT * on the
// control connection, against the union of the writers' oracles, and
// returns the table's rows in sorted rendered form.
func (d *driver) verify() ([]string, error) {
	var want [][]types.Value
	for _, wr := range d.writers {
		for _, row := range wr.oracle {
			want = append(want, row)
		}
	}
	lines, err := d.ctl.DoRetry("SQL SELECT * FROM " + d.cfg.table)
	if err != nil {
		return nil, err
	}
	if last := lines[len(lines)-1]; last != "END" {
		return nil, fmt.Errorf("SELECT *: %s", last)
	}
	got := make([]string, 0, len(lines)-1)
	for _, line := range lines[:len(lines)-1] {
		got = append(got, strings.TrimPrefix(line, "ROW "))
	}
	sort.Strings(got)
	missing := map[string]bool{}
	for _, row := range hana.RenderSQLRows(want) {
		missing[row] = true
	}
	for _, row := range got {
		if !missing[row] {
			return nil, fmt.Errorf("table row %q is in no writer's oracle (table %d rows, oracle %d)", row, len(got), len(want))
		}
		delete(missing, row)
	}
	for row := range missing {
		return nil, fmt.Errorf("oracle row %q is missing from the table (table %d rows, oracle %d)", row, len(got), len(want))
	}
	return got, nil
}
