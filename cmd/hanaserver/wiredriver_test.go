package main

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"slices"
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
// sessions replay a seeded insert/update/delete/point mix of prepared
// SQL while one analyst session alternates a scan-aggregate with MERGE,
// all through internal/client against a live server. Writer w owns the
// keys congruent to w+1 modulo N and keeps its own RNG streams and
// oracle, so the committed end state is a pure function of the seed
// whatever the interleaving, and verify checks it row by row.

// wireRow renders values as EXECUTE parameters (sep " ") or as a SQL
// VALUES tuple (sep ", ").
func wireRow(row []types.Value, sep string) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.String()
		if v.Kind == types.KindString {
			parts[i] = "'" + v.S + "'"
		}
	}
	return strings.Join(parts, sep)
}

// opMix is a writer's operation mix in percent; the remainder (to
// 100) is point queries.
type opMix struct {
	InsertPct, UpdatePct, DeletePct int
}

type driveConfig struct {
	addr, table           string
	writers, ops, preload int
	seed                  int64
	mix                   opMix
	dial                  func(addr string) (net.Conn, error) // session transport; nil = plain TCP
	maxRetries            int                                 // per-op retry budget; < 0 = unlimited
}

// driver holds one finished run: the writers' oracles, the clean
// control connection verify reads through, and the run's totals.
type driver struct {
	cfg                    driveConfig
	ctl                    *wire.Client
	writers                []*writer
	acked, rejected, scans int
	reconnects, retries    uint64
}

// writer is one session's private state, touched only by its own
// goroutine while the run lasts.
type writer struct {
	w, n            int64
	c               *wire.Client
	mix             opMix
	gen             *workload.OrderGen
	rng             *rand.Rand
	keys            workload.KeyChooser
	live            []int64
	nextID          int64
	oracle          map[int64][]types.Value
	acked, rejected int
}

// dialSession connects a session client over cfg's transport and
// prepares the driver's statements, replayed on every reconnect.
func dialSession(t *testing.T, cfg driveConfig, seed int64) *wire.Client {
	t.Helper()
	c, err := wire.Dial(wire.Config{Addr: cfg.addr, Dial: cfg.dial, MaxRetries: cfg.maxRetries, Seed: seed})
	if err != nil {
		t.Fatalf("dial %s: %v", cfg.addr, err)
	}
	t.Cleanup(func() { c.Close() })
	for name, text := range map[string]string{
		"ins": "INSERT INTO " + cfg.table + " VALUES (?, ?, ?, ?, ?, ?, ?)",
		"upd": "UPDATE " + cfg.table + " SET customer = ?, product = ?, region = ?, status = ?, " +
			"quantity = ?, amount = ? WHERE id = ?",
		"del": "DELETE FROM " + cfg.table + " WHERE id = ?",
		"pt":  "SELECT id FROM " + cfg.table + " WHERE id = ?",
	} {
		if err := c.Prepare(name, text); err != nil {
			t.Fatalf("prepare %s: %v", name, err)
		}
	}
	return c
}

// drive creates, preloads and merges cfg.table over a clean control
// connection, then runs the writers and the analyst to completion.
func drive(t *testing.T, cfg driveConfig) *driver {
	t.Helper()
	ctl, err := wire.Dial(wire.Config{Addr: cfg.addr, Seed: cfg.seed + 1})
	if err != nil {
		t.Fatalf("dial %s: %v", cfg.addr, err)
	}
	t.Cleanup(func() { ctl.Close() })
	d := &driver{cfg: cfg, ctl: ctl}
	preRows := workload.NewOrderGen(cfg.seed, 10_000, 2000).Rows(cfg.preload)
	values := make([]string, len(preRows))
	for i, row := range preRows {
		values[i] = "(" + wireRow(row, ", ") + ")"
	}
	for _, cmd := range []string{
		"SQL CREATE TABLE " + cfg.table + " (id BIGINT PRIMARY KEY, customer VARCHAR NOT NULL, " +
			"product VARCHAR NOT NULL, region VARCHAR NOT NULL, status VARCHAR NOT NULL, " +
			"quantity BIGINT NOT NULL, amount DOUBLE NOT NULL)",
		"SQL INSERT INTO " + cfg.table + " VALUES " + strings.Join(values, ", "),
		"MERGE " + cfg.table,
	} {
		if _, err := d.ctl.DoOK(cmd); err != nil {
			t.Fatalf("setup: %v", err)
		}
	}

	n := int64(cfg.writers)
	for w := int64(0); w < n; w++ {
		wr := &writer{w: w, n: n, mix: cfg.mix,
			c:      dialSession(t, cfg, cfg.seed+104729*(w+2)),
			gen:    workload.NewOrderGen(cfg.seed+7919*(w+1), 10_000, 2000),
			rng:    rand.New(rand.NewSource(cfg.seed*31 + w)),
			keys:   workload.NewZipfian(cfg.seed+104729*(w+1), uint64(cfg.preload+cfg.writers*cfg.ops), workload.DefaultZipfS),
			nextID: int64(cfg.preload) + 1 + (w-int64(cfg.preload)%n+n)%n, // the first owned key past the preload
			oracle: map[int64][]types.Value{},
		}
		for id := w + 1; id <= int64(cfg.preload); id += n {
			wr.oracle[id] = preRows[id-1]
			wr.live = append(wr.live, id)
		}
		d.writers = append(d.writers, wr)
	}
	analyst := dialSession(t, cfg, cfg.seed+2)

	var wg sync.WaitGroup
	var done atomic.Bool
	errs := make([]error, len(d.writers)+1)
	for i, wr := range d.writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := 0; op < cfg.ops && errs[i] == nil; op++ {
				errs[i] = wr.step()
			}
		}()
	}
	go func() { wg.Wait(); done.Store(true) }()
	// The analyst scans and merges until the writers finish (at least once).
	for d.scans == 0 || !done.Load() {
		_, err := query(analyst, "SQL SELECT region, COUNT(*), SUM(quantity), SUM(amount) FROM "+cfg.table+" GROUP BY region")
		if err == nil {
			_, err = analyst.DoRetryOK("MERGE " + cfg.table)
		}
		if errs[len(errs)-1] = err; err != nil {
			break
		}
		d.scans++
	}
	wg.Wait()
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
		row := wr.gen.Row()
		row[0] = types.Int(wr.nextID)
		wr.nextID += wr.n
		if ok, err := wr.write("EXECUTE ins "+wireRow(row, " "), true); !ok {
			return err
		}
		wr.oracle[row[0].I] = row
		wr.live = append(wr.live, row[0].I)
	case p < wr.mix.InsertPct+wr.mix.UpdatePct:
		row := wr.gen.Row()
		row[0] = types.Int(wr.live[wr.rng.Intn(len(wr.live))])
		if ok, err := wr.write(fmt.Sprintf("EXECUTE upd %s %d", wireRow(row[1:], " "), row[0].I), false); !ok {
			return err
		}
		wr.oracle[row[0].I] = row
	case p < writes:
		i := wr.rng.Intn(len(wr.live))
		if ok, err := wr.write(fmt.Sprintf("EXECUTE del %d", wr.live[i]), true); !ok {
			return err
		}
		delete(wr.oracle, wr.live[i])
		wr.live[i] = wr.live[len(wr.live)-1]
		wr.live = wr.live[:len(wr.live)-1]
	default:
		key := 1 + int64(wr.keys.Next())
		rows, err := query(wr.c, fmt.Sprintf("EXECUTE pt %d", key))
		if err != nil {
			return err
		}
		if _, want := wr.oracle[key]; (key-1)%wr.n == wr.w && want != (len(rows) > 0) {
			return fmt.Errorf("point read of owned key %d: found=%v, oracle=%v", key, len(rows) > 0, want)
		}
	}
	return nil
}

// query sends a row-returning command with retry and returns its ROW
// lines, or the server's error.
func query(c *wire.Client, cmd string) ([]string, error) {
	lines, err := c.DoRetry(cmd)
	if err != nil {
		return nil, err
	}
	if last := lines[len(lines)-1]; last != "END" {
		return nil, fmt.Errorf("%s: %s", cmd, last)
	}
	return lines[:len(lines)-1], nil
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
	resent := 0
	for ; resent < 100 && err != nil && strings.Contains(err.Error(), "write-write conflict"); resent++ {
		time.Sleep(time.Millisecond)
		line, err = wr.c.DoRetryOK(cmd)
	}
	_, after := wr.c.Stats()
	retried := after > before || resent > 0
	var serr *wire.ServerError
	unchanged := line == "OK 0" || errors.As(err, &serr) && strings.Contains(serr.Msg, "duplicate key")
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
// returns the table's ROW lines, sorted.
func (d *driver) verify() ([]string, error) {
	got, err := query(d.ctl, "SQL SELECT * FROM "+d.cfg.table)
	if err != nil {
		return nil, err
	}
	slices.Sort(got)
	missing := map[string]bool{}
	for _, wr := range d.writers {
		for _, row := range hana.RenderSQLRows(slices.Collect(maps.Values(wr.oracle))) {
			missing["ROW "+row] = true
		}
	}
	want := len(missing)
	for _, row := range got {
		if !missing[row] {
			return nil, fmt.Errorf("table row %q is in no writer's oracle (table %d rows, oracle %d)", row, len(got), want)
		}
		delete(missing, row)
	}
	for row := range missing {
		return nil, fmt.Errorf("oracle row %q is missing from the table (table %d rows, oracle %d)", row, len(got), want)
	}
	return got, nil
}
