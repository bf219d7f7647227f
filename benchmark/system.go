package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	hana "repro"
	"repro/internal/client"
	"repro/internal/workload"
)

// accessPath is how a workload's clients reach the engine.
type accessPath int

const (
	pathNative accessPath = iota // hana.Table / hana.View / calc graphs
	pathSQL                      // embedded hana.SQLEngine, prepared statements
	pathWire                     // hanaserver subprocess, PREPARE/EXECUTE over TCP
)

func (p accessPath) String() string {
	return [...]string{"native", "embedded-sql", "wire"}[p]
}

// tableShape is the part of the order table's configuration the
// workloads vary: the merge thresholds that decide how often the delta
// is propagated.
type tableShape struct {
	l1MaxRows, l2MaxRows int
}

func ordersConfig(shape tableShape) hana.TableConfig {
	return hana.TableConfig{
		Name: ordersTable, Schema: workload.OrderSchema(),
		CheckUnique: true, Compress: true, CompactDicts: true,
		L1MaxRows: shape.l1MaxRows, L2MaxRows: shape.l2MaxRows,
	}
}

func customersConfig() hana.TableConfig {
	return hana.TableConfig{
		Name: customersTable, Schema: customerSchema(),
		CheckUnique: true, Compress: true, CompactDicts: true,
	}
}

// bulkBatch is the rows per bulk-insert transaction during loading.
const bulkBatch = 10_000

// bulkLoad inserts rows through the bulk path and merges them into
// main, leaving an empty delta.
func bulkLoad(db *hana.DB, t *hana.Table, rows [][]hana.Value) error {
	for i := 0; i < len(rows); i += bulkBatch {
		end := min(i+bulkBatch, len(rows))
		tx := db.Begin(hana.TxnSnapshot)
		if _, err := t.BulkInsert(tx, rows[i:end]); err != nil {
			db.Abort(tx)
			return fmt.Errorf("bulk insert into %s: %w", t.Name(), err)
		}
		if err := db.Commit(tx); err != nil {
			return fmt.Errorf("bulk commit on %s: %w", t.Name(), err)
		}
	}
	if _, err := t.MergeMain(); err != nil {
		return fmt.Errorf("merge %s: %w", t.Name(), err)
	}
	return nil
}

// loadDir builds a data directory holding the data set fully merged
// into main and savepointed, then closes it: the state every workload
// (and the server) starts from by opening the directory. It returns
// the order table's stats as loaded.
func loadDir(dir string, d *dataset, shape tableShape) (hana.TableStats, error) {
	var st hana.TableStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	db, err := hana.Open(hana.Options{Dir: dir})
	if err != nil {
		return st, fmt.Errorf("open %s: %w", dir, err)
	}
	defer db.Close()
	orders, err := db.CreateTable(ordersConfig(shape))
	if err != nil {
		return st, err
	}
	customers, err := db.CreateTable(customersConfig())
	if err != nil {
		return st, err
	}
	if err := bulkLoad(db, orders, d.orders); err != nil {
		return st, err
	}
	if err := bulkLoad(db, customers, d.customers); err != nil {
		return st, err
	}
	if err := db.Savepoint(); err != nil {
		return st, fmt.Errorf("savepoint %s: %w", dir, err)
	}
	st = orders.Stats()
	return st, db.Close()
}

// system is a running system under test: an embedded database or a
// server process, opened on a loaded data directory.
type system struct {
	path accessPath
	db   *hana.DB        // native and embedded SQL
	eng  *hana.SQLEngine // embedded SQL
	st   *sqlStatements
	srv  *serverProc // wire
	ctl  *client.Client
	seed int64
	net  *netCounter // wire: bytes on the session connections
	open []session

	closed bool
}

type systemOptions struct {
	path      accessPath
	autoMerge bool
	obs       bool // Options.Obs set (traced runs); the server always has it
	seed      int64
	serverBin string
}

// openSystem opens dir the way the workload's access path needs; for
// the wire path that means starting a server on it and waiting until
// it answers.
func openSystem(dir string, o systemOptions) (*system, error) {
	sys := &system{path: o.path, seed: o.seed}
	if o.path == pathWire {
		srv, err := startServer(o.serverBin, dir)
		if err != nil {
			return nil, err
		}
		sys.srv = srv
		sys.net = &netCounter{}
		ctl, err := client.Dial(client.Config{Addr: srv.addr, Seed: o.seed})
		if err != nil {
			srv.stop()
			return nil, err
		}
		sys.ctl = ctl
		return sys, nil
	}
	opts := hana.Options{Dir: dir, AutoMerge: o.autoMerge}
	if o.obs {
		opts.Obs = hana.NewMetrics()
	}
	db, err := hana.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	sys.db = db
	if o.path == pathSQL {
		sys.eng = hana.NewSQLEngine(db, hana.TableConfig{})
		if sys.st, err = prepareAll(sys.eng); err != nil {
			db.Close()
			return nil, err
		}
	}
	return sys, nil
}

// session opens one client session on the system's access path.
func (sys *system) session() (session, error) {
	var s session
	switch sys.path {
	case pathNative:
		s = newNativeSession(sys.db)
	case pathSQL:
		s = &sqlSession{st: sys.st}
	case pathWire:
		w, err := dialWire(client.Config{Addr: sys.srv.addr, Seed: sys.seed + int64(len(sys.open)) + 1, Dial: sys.net.dial})
		if err != nil {
			return nil, err
		}
		s = w
	}
	sys.open = append(sys.open, s)
	return s, nil
}

// transport sums the wire sessions' reconnects and command retries.
func (sys *system) transport() (reconnects, retries uint64) {
	for _, s := range sys.open {
		if w, ok := s.(*wireSession); ok {
			rc, rt := w.c.Stats()
			reconnects += rc
			retries += rt
		}
	}
	return reconnects, retries
}

// close shuts the system down: sessions, then the database or the
// server process (SIGTERM, waited for).
func (sys *system) close() error {
	if sys.closed {
		return nil
	}
	sys.closed = true
	for _, s := range sys.open {
		s.Close()
	}
	sys.open = nil
	if sys.srv != nil {
		sys.ctl.Close()
		return sys.srv.stop()
	}
	return sys.db.Close()
}

// tableStats returns the order table's life-cycle stats as the
// key → number map of the STATS line (the embedded paths render the
// same line locally, so both read alike).
func (sys *system) tableStats() (map[string]float64, error) {
	var line string
	if sys.srv != nil {
		ok, err := sys.ctl.DoOK("STATS " + ordersTable)
		if err != nil {
			return nil, err
		}
		line = ok
	} else {
		line = sys.db.Table(ordersTable).Stats().WireString()
	}
	return parseKV(line), nil
}

var kvNumber = regexp.MustCompile(`(\w+)=(\d+)\b`)

func parseKV(line string) map[string]float64 {
	out := map[string]float64{}
	for _, m := range kvNumber.FindAllStringSubmatch(line, -1) {
		out[m[1]], _ = strconv.ParseFloat(m[2], 64)
	}
	return out
}

// promSamples is one reading of the engine's metrics registry: series
// name → value.
type promSamples map[string]float64

// metrics reads the engine's observability registry — DB.Metrics() when
// embedded, the METRICS verb on the wire. It is empty when the
// database was opened without a registry.
func (sys *system) metrics() (promSamples, error) {
	var text string
	if sys.srv != nil {
		lines, err := sys.ctl.Do("METRICS")
		if err != nil {
			return nil, err
		}
		text = strings.Join(lines, "\n")
	} else {
		var buf bytes.Buffer
		if err := sys.db.Metrics().WriteProm(&buf); err != nil {
			return nil, err
		}
		text = buf.String()
	}
	return parseProm(text), nil
}

// parseProm folds Prometheus text exposition into name → value: the
// database-wide series and the order table's, with the labels that
// distinguish series of one name (op, phase) appended to it. Histogram
// buckets and other tables' series are skipped.
func parseProm(text string) promSamples {
	out := promSamples{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || line == "END" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name, labels, _ := strings.Cut(series, "{")
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		if _, rest, ok := strings.Cut(labels, `table="`); ok && !strings.HasPrefix(rest, ordersTable+`"`) {
			continue
		}
		for _, key := range []string{"op", "phase"} {
			if _, rest, ok := strings.Cut(labels, key+`="`); ok {
				val, _, _ := strings.Cut(rest, `"`)
				name += "." + val
			}
		}
		out[name] += v
	}
	return out
}

// delta returns after − before for every series.
func (after promSamples) delta(before promSamples) promSamples {
	out := make(promSamples, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// watchRSS starts tracking the peak resident set of the process doing
// the engine's work and returns the function that ends the watch and
// reports the peak in MB. The server's kernel high-water mark is its
// own; this process's would include the discarded set-up repeats, so
// it is returned to the OS first and then sampled.
func (sys *system) watchRSS() func() (float64, error) {
	if sys.srv != nil {
		pid := sys.srv.cmd.Process.Pid
		return func() (float64, error) { return procStatusMB(pid, "VmHWM:") }
	}
	debug.FreeOSMemory()
	stop, done := make(chan struct{}), make(chan struct{})
	var peak float64
	var failed error
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, err := procStatusMB(os.Getpid(), "VmRSS:")
			if err != nil {
				failed = err
				return
			}
			peak = max(peak, mb)
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() (float64, error) {
		close(stop)
		<-done
		return peak, failed
	}
}

// procStatusMB reads one kB field of /proc/<pid>/status.
func procStatusMB(pid int, field string) (float64, error) {
	buf, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}
