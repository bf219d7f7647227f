package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	hana "repro"
)

// newObsClient is newClient with an enabled metrics registry.
func newObsClient(t *testing.T) *client {
	t.Helper()
	db := hana.MustOpen(hana.Options{Obs: hana.NewMetrics()})
	t.Cleanup(func() { db.Close() })
	server, clientSide := net.Pipe()
	go serve(db, server)
	c := &client{t: t, conn: clientSide, r: bufio.NewScanner(clientSide)}
	t.Cleanup(func() { clientSide.Close() })
	return c
}

// TestMetricsCommand exercises METRICS (full and table-scoped) after a
// scripted workload: the write/merge/scan series must be on the wire.
func TestMetricsCommand(t *testing.T) {
	c := newObsClient(t)
	c.expectOK("SQL CREATE TABLE orders (id INT PRIMARY KEY, customer VARCHAR, amount DOUBLE)")
	for i := 1; i <= 5; i++ {
		c.expectOK(fmt.Sprintf("SQL INSERT INTO orders VALUES (%d, 'cust', %d.5)", i, i))
	}
	c.expectOK("MERGE orders")
	if rows := c.rows("SQL SELECT * FROM orders"); len(rows) != 5 {
		t.Fatalf("SELECT * → %v", rows)
	}

	out := strings.Join(c.send("METRICS"), "\n")
	for _, want := range []string{
		`hana_write_seconds_count{table="orders",op="insert"} 5`,
		`hana_main_merge_rows_total{table="orders"} 5`,
		`hana_main_merge_seconds_count{table="orders",phase="total"} 1`,
		`hana_scan_rows_total{table="orders"}`,
		"hana_savepoint_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("METRICS missing %q:\n%s", want, out)
		}
	}

	// Table-scoped dump keeps the orders series, drops the
	// database-scoped ones.
	scoped := strings.Join(c.send("METRICS orders"), "\n")
	if !strings.Contains(scoped, `hana_main_merge_rows_total{table="orders"} 5`) {
		t.Errorf("METRICS orders missing merge series:\n%s", scoped)
	}
	if strings.Contains(scoped, "hana_savepoint_total") {
		t.Errorf("METRICS orders leaked database-scoped series:\n%s", scoped)
	}
	if none := c.send("METRICS nosuch"); len(none) != 1 || none[0] != "END" {
		t.Errorf("METRICS for unknown table → %v", none)
	}
}

// TestMetricsWAL: with persistence on, the redo-log series show up
// and a SAVEPOINT records its latency.
func TestMetricsWAL(t *testing.T) {
	db := hana.MustOpen(hana.Options{Dir: t.TempDir(), Obs: hana.NewMetrics()})
	t.Cleanup(func() { db.Close() })
	server, clientSide := net.Pipe()
	go serve(db, server)
	c := &client{t: t, conn: clientSide, r: bufio.NewScanner(clientSide)}
	t.Cleanup(func() { clientSide.Close() })

	c.expectOK("SQL CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)")
	c.expectOK("SQL INSERT INTO t VALUES (1, 'a')")
	c.expectOK("SAVEPOINT")

	out := strings.Join(c.send("METRICS"), "\n")
	for _, want := range []string{
		"hana_wal_appends_total", "hana_wal_append_bytes_total",
		"hana_savepoint_total 1", "hana_savepoint_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("METRICS missing %q on a durable database:\n%s", want, out)
		}
	}
}

// TestTraceCommand checks the lifecycle replay over the wire: events
// arrive oldest-first and the merge transitions are present in order.
func TestTraceCommand(t *testing.T) {
	c := newObsClient(t)
	c.expectOK("SQL CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)")
	c.expectOK("SQL INSERT INTO t VALUES (1, 'a')")
	c.expectOK("SQL INSERT INTO t VALUES (2, 'b')")
	c.expectOK("MERGE t")

	out := c.send("TRACE")
	if out[len(out)-1] != "END" {
		t.Fatalf("TRACE → %v", out)
	}
	want := []string{"l1-merge", "rotate-l2", "merge-start", "merge-done"}
	wi := 0
	for _, line := range out[:len(out)-1] {
		if wi < len(want) && strings.Contains(line, want[wi]) {
			wi++
		}
	}
	if wi != len(want) {
		t.Fatalf("TRACE missing %v in order:\n%s", want[wi:], strings.Join(out, "\n"))
	}

	// TRACE 1 returns only the newest event.
	last := c.send("TRACE 1")
	if len(last) != 2 {
		t.Fatalf("TRACE 1 → %v", last)
	}
	if got := c.send("TRACE -3"); !strings.HasPrefix(got[len(got)-1], "ERR") {
		t.Fatalf("TRACE -3 → %v", got)
	}
}

// TestMetricsCommandDisabled: a database without a registry answers
// METRICS/TRACE with a clean empty dump rather than an error.
func TestMetricsCommandDisabled(t *testing.T) {
	c := newClient(t)
	if out := c.send("METRICS"); len(out) != 1 || out[0] != "END" {
		t.Fatalf("METRICS on disabled registry → %v", out)
	}
	if out := c.send("TRACE"); len(out) != 1 || out[0] != "END" {
		t.Fatalf("TRACE on disabled registry → %v", out)
	}
}

// TestObsHTTP drives the -obs-addr handler: /metrics serves the
// Prometheus text and the pprof index answers.
func TestObsHTTP(t *testing.T) {
	reg := hana.NewMetrics()
	db := hana.MustOpen(hana.Options{Obs: reg})
	defer db.Close()
	tab, err := db.CreateTable(hana.TableConfig{
		Name: "t",
		Schema: hana.MustSchema([]hana.Column{
			{Name: "id", Kind: hana.Int64},
			{Name: "v", Kind: hana.String},
		}, 0),
		CheckUnique: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin(hana.TxnSnapshot)
	if _, err := tab.Insert(tx, hana.Row(hana.Int(1), hana.Str("x"))); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}

	ready := func() error { return db.Ready() }
	ts := httptest.NewServer(obsMux(reg, ready))
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, `hana_write_seconds_count{table="t",op="insert"} 1`) {
		t.Errorf("/metrics missing insert series:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE hana_write_seconds histogram") {
		t.Errorf("/metrics missing TYPE line:\n%s", body)
	}

	code, body = get("/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ status %d body %q", code, body[:min(len(body), 200)])
	}

	// /healthz reflects database readiness: 200 while open, 503 after
	// Close.
	code, body = get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz status %d body %q", code, body)
	}
	db.Close()
	if code, _ = get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after Close status %d, want 503", code)
	}
}

// TestObsHTTPBuildInfo: the build-info gauge set at startup reaches
// the scrape endpoint with its version and go labels.
func TestObsHTTPBuildInfo(t *testing.T) {
	reg := hana.NewMetrics()
	reg.Gauge("hana_build_info",
		hana.Label("version", buildVersion),
		hana.Label("go", "go-test")).Set(1)
	ts := httptest.NewServer(obsMux(reg, nil))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `hana_build_info{version="dev",go="go-test"} 1`) {
		t.Errorf("/metrics missing build info gauge:\n%s", body)
	}
	// nil ready function: /healthz is unconditionally healthy.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz with nil ready → %d", hresp.StatusCode)
	}
}
