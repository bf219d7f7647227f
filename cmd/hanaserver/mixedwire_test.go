package main

import (
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/types"
)

// mixedConfig is the over-the-wire mixed workload: three writers at
// 50% writes and one analyst against a live-merging server.
func mixedConfig(addr, table string) driveConfig {
	return driveConfig{
		addr: addr, table: table,
		writers: 3, ops: 150, preload: 400, seed: 7,
		mix: opMix{InsertPct: 20, UpdatePct: 25, DeletePct: 5},
	}
}

// statsCounter reads one numeric field of the table's STATS line.
func statsCounter(t *testing.T, d *driver, field string) uint64 {
	t.Helper()
	line, err := d.ctl.DoOK("STATS " + d.cfg.table)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`\b` + field + `=(\d+)`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("STATS has no %s: %s", field, line)
	}
	n, _ := strconv.ParseUint(m[1], 10, 64)
	return n
}

// metricValue reads one unlabelled series from the server's METRICS dump.
func metricValue(t *testing.T, d *driver, name string) uint64 {
	t.Helper()
	lines, err := query(d.ctl, "METRICS")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("METRICS %s: %v", name, err)
			}
			return uint64(n)
		}
	}
	t.Fatalf("METRICS has no %s", name)
	return 0
}

// TestMixedBenchOverWire runs the mixed workload with every operation
// travelling as SQL (PREPARE/EXECUTE against the server's plan cache):
// concurrent OLTP sessions and an analyst whose scans and merges
// interleave with the writes, then a row-by-row check of the table
// against the writers' oracles.
func TestMixedBenchOverWire(t *testing.T) {
	addr, _, _ := lifecycleServer(t, 0, serverOptions{maxConns: 64})
	d := drive(t, mixedConfig(addr, "mixed"))
	if _, err := d.verify(); err != nil {
		t.Fatal(err)
	}
	if d.acked == 0 || d.scans == 0 {
		t.Fatalf("run did no work: %d writes acknowledged, %d scans", d.acked, d.scans)
	}
	if n := statsCounter(t, d, "l1merges"); n < 2 {
		t.Errorf("l1merges = %d: the analyst's merges did not run during the writes", n)
	}
}

// TestMixedBenchOverWireSQL runs the same workload and checks that its
// SQL shares the server's plan cache: each statement text compiles once
// for all sessions, so the writers' and the analyst's PREPAREs after the
// first session and every repeat of the analyst's scan are cache hits,
// and the misses stay at the number of distinct statements whatever
// the number of sessions or scans.
func TestMixedBenchOverWireSQL(t *testing.T) {
	addr, _, _ := lifecycleServer(t, 0, serverOptions{maxConns: 64})
	cfg := mixedConfig(addr, "mixed_sql")
	d := drive(t, cfg)
	hits := metricValue(t, d, "hana_sql_plan_cache_hits_total")
	misses := metricValue(t, d, "hana_sql_plan_cache_misses_total")
	// Distinct texts: CREATE TABLE, the preload INSERT, the four
	// prepared statements and the analyst's GROUP BY.
	const distinct = 7
	if misses > distinct {
		t.Errorf("plan cache misses = %d, want at most %d (one per distinct statement)", misses, distinct)
	}
	sessions := uint64(cfg.writers + 1) // each prepares the same four statements
	if want := (sessions-1)*4 + uint64(d.scans-1); hits < want {
		t.Errorf("plan cache hits = %d after %d sessions and %d scans, want at least %d", hits, sessions, d.scans, want)
	}
	if _, err := d.verify(); err != nil {
		t.Fatal(err)
	}
	if d.acked == 0 || d.scans == 0 {
		t.Fatalf("run did no work: %d writes acknowledged, %d scans", d.acked, d.scans)
	}
}

// TestMixedDeterministicEndState runs the same seeded workload
// twice into two tables: the committed end state and each writer's
// acknowledged-write count depend on the seed alone, not on how the
// sessions and the analyst's merges interleave. This is what lets a
// concurrent run double as a correctness test.
func TestMixedDeterministicEndState(t *testing.T) {
	addr, _, _ := lifecycleServer(t, 0, serverOptions{maxConns: 64})
	a := drive(t, mixedConfig(addr, "mixed_det_a"))
	b := drive(t, mixedConfig(addr, "mixed_det_b"))
	rowsA, err := a.verify()
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	rowsB, err := b.verify()
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	if !reflect.DeepEqual(rowsA, rowsB) {
		t.Fatalf("same seed, different end states: %d rows vs %d", len(rowsA), len(rowsB))
	}
	for i := range a.writers {
		if wa, wb := a.writers[i], b.writers[i]; wa.acked != wb.acked {
			t.Errorf("writer %d acknowledged %d writes in run A, %d in run B", i, wa.acked, wb.acked)
		}
	}
}

// TestMixedBenchOverWireAdmission arms the server's delta-backlog
// watermarks low enough that writes are throttled and rejected while
// the analyst's merges drain the backlog. A rejected write must leave
// no trace: the row-by-row check still holds.
func TestMixedBenchOverWireAdmission(t *testing.T) {
	addr, _, _ := lifecycleServer(t, 0, serverOptions{maxConns: 64, throttleRows: 4, overloadRows: 8})
	cfg := mixedConfig(addr, "mixed_admission")
	cfg.preload = 50
	d := drive(t, cfg)
	if _, err := d.verify(); err != nil {
		t.Fatal(err)
	}
	t.Logf("admission: %d writes acknowledged, %d rejected, throttled=%d",
		d.acked, d.rejected, statsCounter(t, d, "throttled"))
}

// TestWireDriverSelfTest proves the differential bites: verify must
// fail when one acknowledged write is dropped from a writer's oracle,
// and when a row appears behind the driver's back.
func TestWireDriverSelfTest(t *testing.T) {
	addr, _, _ := lifecycleServer(t, 0, serverOptions{maxConns: 64})
	cfg := mixedConfig(addr, "selftest")
	cfg.ops = 40
	d := drive(t, cfg)
	if _, err := d.verify(); err != nil {
		t.Fatalf("clean run: %v", err)
	}

	wr, id := d.writers[0], int64(0)
	for _, k := range wr.live {
		if k > int64(cfg.preload) { // inserted, and acknowledged, during the run
			id = k
		}
	}
	row := wr.oracle[id]
	if row == nil {
		t.Fatal("writer 0 acknowledged no insert")
	}
	delete(wr.oracle, id)
	if _, err := d.verify(); err == nil {
		t.Errorf("verify passed with acknowledged row %d dropped from the oracle", id)
	}
	wr.oracle[id] = row
	if _, err := d.verify(); err != nil {
		t.Fatalf("restored oracle: %v", err)
	}

	stray := append([]types.Value{types.Int(1 << 40)}, row[1:]...)
	if _, err := d.ctl.DoOK("SQL INSERT INTO " + cfg.table + " VALUES (" + wireRow(stray, ", ") + ")"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.verify(); err == nil {
		t.Errorf("verify passed with a row inserted behind the driver's back")
	}
}
