package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	hana "repro"
)

// phase is one stretch of a run with a fixed set of closed-loop
// clients on the system under test.
type phase struct {
	writers  int     // ERP sessions running the transaction mix
	analysts int     // reporting sessions cycling through cycle
	cycle    []class // the analysts' query order
	share    float64 // of the run's measured seconds
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name      string
	path      accessPath
	orders    int // preloaded order rows, merged into main
	customers int // customer dimension rows and customer-id domain
	autoMerge bool
	shape     tableShape
	phases    []phase
	// oltpFrom and olapFrom name the phase that supplies the
	// transaction metrics and the query metrics.
	oltpFrom, olapFrom int
	// minMerges is how many main merges the transaction phase must
	// contain; -1 demands that none runs at all.
	minMerges int
}

// reportCycle is every analyst's query order: each class at least
// once, and q_filter — the one class short enough to run a few hundred
// times inside a run — four times between the others.
var reportCycle = []class{
	clsGroupLow, clsFilter, clsFilter, clsFilter, clsFilter,
	clsGroupHigh, clsFilter, clsFilter, clsFilter, clsFilter,
	clsGroupLow, clsFilter, clsFilter, clsFilter, clsFilter,
	clsJoin, clsFilter, clsFilter, clsFilter, clsFilter,
}

// minSamples is the fewest samples a phase must collect per class
// before it may end: enough for what is reported from it (the 95th
// percentile of point reads, the 99th of inserts and updates pooled, a
// mean of q_filter worth the name).
var minSamples = [numClasses]int{
	clsPoint: 20 * minBeyond, clsInsert: 50 * minBeyond, clsUpdate: 50 * minBeyond,
	clsGroupLow: 5, clsGroupHigh: 5, clsJoin: 5, clsFilter: 100,
}

// Data sizes, chosen so that a run with three set-ups fits the
// driver's time cap. The customer domain is sized against the main
// store's decode cache, which keeps at most 65 536 decoded values per
// column: on olap_sql 100 000 uniform customers put ~86 000 distinct
// values into 200 000 orders (cache exceeded) while region's 5 values
// always fit; the OLTP-bearing workloads use a domain that fits.
const (
	oltpOrders    = 100_000
	oltpCustomers = 50_000
	olapOrders    = 200_000
	olapCustomers = 100_000
)

// The OLTP-first workloads report on the freshly loaded table before
// the transaction window, not after it: afterwards the table's size
// depends on how many transactions the window fitted, and a faster
// engine would be charged with slower queries.
var workloadDefs = []workloadDef{
	{
		name: "oltp_native", path: pathNative,
		orders: oltpOrders, customers: oltpCustomers, autoMerge: true,
		shape: tableShape{l1MaxRows: 10_000, l2MaxRows: 30_000},
		phases: []phase{
			{analysts: 1, cycle: reportCycle, share: 0.4},
			{writers: 1, share: 0.6},
		},
		oltpFrom: 1, olapFrom: 0, minMerges: 3,
	},
	{
		name: "oltp_sql_wire", path: pathWire,
		orders: oltpOrders, customers: oltpCustomers, autoMerge: true,
		shape: tableShape{l1MaxRows: 250, l2MaxRows: 800},
		phases: []phase{
			{analysts: 1, cycle: reportCycle, share: 0.4},
			{writers: 1, share: 0.6},
		},
		oltpFrom: 1, olapFrom: 0, minMerges: 3,
	},
	{
		name: "olap_sql", path: pathSQL,
		orders: olapOrders, customers: olapCustomers, autoMerge: false,
		phases: []phase{
			{analysts: 1, cycle: reportCycle, share: 0.7},
			{writers: 1, share: 0.3},
		},
		oltpFrom: 1, olapFrom: 0, minMerges: -1,
	},
	{
		name: "htap_mixed", path: pathSQL,
		orders: oltpOrders, customers: oltpCustomers, autoMerge: true,
		shape: tableShape{l1MaxRows: 50, l2MaxRows: 150},
		phases: []phase{
			{writers: 1, analysts: 1, cycle: reportCycle, share: 1},
		},
		oltpFrom: 0, olapFrom: 0, minMerges: 3,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	// scale divides every data size and fixed op count; relaxed drops
	// the demands a full-size run must meet (sample counts behind a
	// percentile, merge cycles in the window). Both exist for the
	// go-test smoke run.
	scale   int
	relaxed bool
	outDir  string // traces, server binary, temp data directories
	// serverBin is the hanaserver binary; built on first need.
	root      string
	serverBin string
}

func (c *config) scaled(n int) int { return max(n/c.scale, 1) }

func (c *config) server() (string, error) {
	if c.serverBin == "" {
		bin, err := buildServer(c.root, filepath.Join(c.outDir, "bin"))
		if err != nil {
			return "", err
		}
		c.serverBin = bin
	}
	return c.serverBin, nil
}

const (
	setupRepeats    = 3
	recoveryRepeats = 5
	warmupSeconds   = 1.0
	// recoveryOps is the redo tail of the recovery fixture: a fixed
	// number of transactions past the savepoint, so recovery_s does not
	// grow when a faster engine fits more work into the window.
	recoveryOps = 20_000
)

// phaseResult is what one phase measured.
type phaseResult struct {
	rec      *recorder // every client's samples pooled
	oltpRate float64   // transactions per second, summed over writers
	olapRate float64   // queries per second, summed over analysts
	merges   float64   // main merges completed during the phase

	// What the traced run reads besides: the order table's stats at the
	// window's end and their change over it, the change of the engine's
	// metrics registry, the bytes the wire sessions moved, and the
	// writers' own tallies.
	statsEnd, statsDelta map[string]float64
	prom                 promSamples
	netBytes             int64
	rowsWritten          int64 // rows inserted or updated
	bytesWritten         int64 // their raw size
	conflicts            int
}

// result is what one run reports.
type result struct {
	metrics   map[string]float64
	samples   map[string]int // sample count behind each latency metric
	attempted int
	failed    int
	correct   bool
	notes     []string
	spans     []spanSummary
	tracePath string
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]int{}, correct: true}
}

// runner executes one workload once.
type runner struct {
	cfg *config
	def *workloadDef
	d   *dataset
	tmp string
	n   int // temp-dir counter
}

func newRunner(cfg *config, def *workloadDef) (*runner, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-"+def.name+"-")
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, def: def, tmp: tmp}
	r.d = genDataset(cfg.seed, cfg.scaled(def.orders), cfg.scaled(def.customers))
	return r, nil
}

func (r *runner) cleanup() { os.RemoveAll(r.tmp) }

func (r *runner) newDir(label string) string {
	r.n++
	return filepath.Join(r.tmp, fmt.Sprintf("%s-%d", label, r.n))
}

func (r *runner) shape() tableShape {
	s := r.def.shape
	if s.l1MaxRows > 0 {
		s.l1MaxRows = r.cfg.scaled(s.l1MaxRows)
		s.l2MaxRows = r.cfg.scaled(s.l2MaxRows)
	}
	return s
}

func (r *runner) open(dir string, obs bool) (*system, error) {
	o := systemOptions{path: r.def.path, autoMerge: r.def.autoMerge, obs: obs, seed: r.cfg.seed}
	if o.path == pathWire {
		bin, err := r.cfg.server()
		if err != nil {
			return nil, err
		}
		o.serverBin = bin
	}
	return openSystem(dir, o)
}

// crew is the clients of a run and the sessions they speak through.
type crew struct {
	writers  []*oltpClient
	sessions []session
}

func (r *runner) newCrew(sys *system) (*crew, error) {
	var maxWriters, maxClients int
	for _, p := range r.def.phases {
		maxWriters = max(maxWriters, p.writers)
		maxClients = max(maxClients, p.writers+p.analysts)
	}
	c := &crew{writers: newOLTPClients(r.d, maxWriters)}
	for i := 0; i < maxClients; i++ {
		s, err := sys.session()
		if err != nil {
			return nil, err
		}
		c.sessions = append(c.sessions, s)
	}
	return c, nil
}

// runPhase drives the phase's clients — each a closed loop on its own
// session — for a discarded warm-up and then for dur, and pools what
// they recorded in the window.
func (r *runner) runPhase(sys *system, c *crew, p phase, dur time.Duration, tracers []*spanRec) (*phaseResult, error) {
	warm := time.Duration(warmupSeconds * float64(time.Second))
	if r.cfg.relaxed {
		warm = dur / 5
	}
	tracer := func(i int) *spanRec {
		if tracers == nil {
			return nil
		}
		return tracers[i]
	}
	var clients []*loopClient
	for i := 0; i < p.writers; i++ {
		w, s := c.writers[i], c.sessions[i]
		w.tr = tracer(i)
		s.trace(w.tr)
		clients = append(clients, &loopClient{step: func() { w.step(s) }, rec: w.rec,
			need: oltpClasses[:3], share: p.writers})
	}
	for i := 0; i < p.analysts; i++ {
		a, s := newAnalyst(r.cfg.seed+int64(i), p.cycle), c.sessions[p.writers+i]
		a.tr = tracer(p.writers + i)
		s.trace(a.tr)
		clients = append(clients, &loopClient{step: func() { a.step(s) }, rec: a.rec, olap: true,
			need: olapClasses, share: p.analysts})
	}
	runLoops(clients, warm, false)
	for _, cl := range clients {
		cl.rec.reset()
	}
	res := &phaseResult{}
	for _, w := range c.writers[:p.writers] {
		res.rowsWritten -= w.rowsWritten
		res.bytesWritten -= w.bytesWritten
		res.conflicts -= w.conflicts
	}
	before, err := sys.tableStats()
	if err != nil {
		return nil, err
	}
	promBefore, err := sys.metrics()
	if err != nil {
		return nil, err
	}
	res.netBytes = -sys.net.total()
	runLoops(clients, dur, !r.cfg.relaxed)
	res.netBytes += sys.net.total()
	promAfter, err := sys.metrics()
	if err != nil {
		return nil, err
	}
	if res.statsEnd, err = sys.tableStats(); err != nil {
		return nil, err
	}
	res.prom = promAfter.delta(promBefore)
	res.statsDelta = map[string]float64{}
	for k, v := range res.statsEnd {
		res.statsDelta[k] = v - before[k]
	}
	res.merges = res.statsDelta["mainmerges"]
	for _, w := range c.writers[:p.writers] {
		res.rowsWritten += w.rowsWritten
		res.bytesWritten += w.bytesWritten
		res.conflicts += w.conflicts
	}
	recs := make([]*recorder, len(clients))
	for i, cl := range clients {
		att, failed := cl.rec.totals()
		rate := float64(att-failed) / cl.elapsed.Seconds()
		if cl.olap {
			res.olapRate += rate
		} else {
			res.oltpRate += rate
		}
		recs[i] = cl.rec
	}
	res.rec = merged(recs...)
	for _, cl := range clients {
		cl.rec.reset()
	}
	return res, nil
}

// loopClient is one closed-loop client of a phase.
type loopClient struct {
	step    func()
	rec     *recorder
	olap    bool
	need    []class // classes whose minSamples this client helps collect
	share   int     // clients collecting them together
	elapsed time.Duration
}

// enough reports whether the client has its share of minSamples.
func (cl *loopClient) enough() bool {
	for _, c := range cl.need {
		if len(cl.rec.samples[c])*cl.share < minSamples[c] {
			return false
		}
	}
	return true
}

// runLoops starts every client at once and lets them run for dur.
// With fill set, the phase goes on for up to half of dur more while any
// client is short of its sample share, so a slow machine stretches the
// window before it starves a percentile. The clients stop together: one
// that ran on alone would no longer be measured under the others' load.
func runLoops(clients []*loopClient, dur time.Duration, fill bool) {
	start := make(chan struct{})
	var short atomic.Int32 // clients still short of samples
	short.Store(int32(len(clients)))
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			t0 := time.Now()
			deadline, hard := t0.Add(dur), t0.Add(dur+dur/2)
			counted := false
			for {
				cl.step()
				now := time.Now()
				if now.Before(deadline) {
					continue
				}
				if !counted && cl.enough() {
					counted = true
					short.Add(-1)
				}
				if !fill || short.Load() == 0 || !now.Before(hard) {
					break
				}
			}
			cl.elapsed = time.Since(t0)
		}()
	}
	close(start)
	wg.Wait()
}

// measured is the untraced run: it yields every end-to-end metric.
func (r *runner) measured() (*result, error) {
	res := newResult()
	repeats := setupRepeats
	if r.cfg.relaxed {
		repeats = 1
	}

	// Set-up, several times over: build the data directory (load,
	// merge, savepoint) and open the system on it. The last one is kept.
	var sys *system
	var loaded hana.TableStats
	setups := make([]float64, repeats)
	fixture := r.newDir("recovery")
	for i := range setups {
		dir := r.newDir("data")
		t0 := time.Now()
		st, err := loadDir(dir, r.d, r.shape())
		if err != nil {
			return nil, err
		}
		spent := time.Since(t0)
		if i == repeats-1 {
			if err := copyDir(dir, fixture); err != nil { // not part of set-up
				return nil, err
			}
		}
		t0 = time.Now()
		s, err := r.open(dir, false)
		if err != nil {
			return nil, err
		}
		setups[i] = (spent + time.Since(t0)).Seconds()
		if i < repeats-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
			continue
		}
		sys, loaded = s, st
	}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	res.metrics["setup_s"] = median(setups)
	res.metrics["stored_bytes_per_user_byte"] = float64(loaded.L1Bytes+loaded.L2Bytes+loaded.MainBytes) / float64(r.d.userBytes)

	c, err := r.newCrew(sys)
	if err != nil {
		return nil, err
	}
	rssPeak := sys.watchRSS()
	// Every query class once against the Go-computed answer on the
	// generated data, before anything changes it.
	if err := r.verifyAnswers(c.sessions[0], r.d.preloaded); err != nil {
		return nil, fmt.Errorf("%s: loaded data: %w", r.def.name, err)
	}
	phases := make([]*phaseResult, len(r.def.phases))
	for i, p := range r.def.phases {
		dur := time.Duration(p.share * r.cfg.seconds * float64(time.Second))
		if phases[i], err = r.runPhase(sys, c, p, dur, nil); err != nil {
			return nil, err
		}
		a, f := phases[i].rec.totals()
		res.attempted += a
		res.failed += f
	}

	// The clients' books are the expected end state.
	if err := r.verifyEndState(sys, c.sessions[0], oracleOf(c.writers)); err != nil {
		res.correct = false
		res.notes = append(res.notes, err.Error())
	}
	stats, err := sys.tableStats()
	if err != nil {
		return nil, err
	}
	if stats["mergefailures"] != 0 {
		res.correct = false
		res.notes = append(res.notes, fmt.Sprintf("%v merge failures", stats["mergefailures"]))
	}
	if res.metrics["rss_peak_mb"], err = rssPeak(); err != nil {
		return nil, err
	}
	err = sys.close()
	sys = nil
	if err != nil {
		return nil, err
	}

	merges := phases[r.def.oltpFrom].merges
	switch {
	case r.def.minMerges < 0 && stats["mainmerges"]+stats["l1merges"] != 0:
		return nil, fmt.Errorf("%s: %v merges ran on a workload that must have none", r.def.name, stats["mainmerges"]+stats["l1merges"])
	case !r.cfg.relaxed && merges < float64(r.def.minMerges):
		return nil, fmt.Errorf("%s: %v main merges completed in the transaction window, need %d", r.def.name, merges, r.def.minMerges)
	}
	res.notes = append(res.notes, fmt.Sprintf("main merges in transaction phase: %v", merges))

	if res.metrics["recovery_s"], err = r.recovery(fixture); err != nil {
		return nil, err
	}

	oltp, olap := phases[r.def.oltpFrom], phases[r.def.olapFrom]
	res.metrics["oltp_ops_per_s"] = oltp.oltpRate
	res.metrics["olap_queries_per_s"] = olap.olapRate
	for _, m := range []struct {
		name    string
		from    *phaseResult
		q, unit float64
		classes []class
	}{
		{"point_p50_us", oltp, 0.50, 1e3, []class{clsPoint}},
		{"point_p95_us", oltp, 0.95, 1e3, []class{clsPoint}},
		{"insert_p50_us", oltp, 0.50, 1e3, []class{clsInsert}},
		{"update_p50_us", oltp, 0.50, 1e3, []class{clsUpdate}},
		{"write_p99_us", oltp, 0.99, 1e3, writeClasses},
		{"q_group_low_p50_ms", olap, 0.50, 1e6, []class{clsGroupLow}},
		{"q_group_high_p50_ms", olap, 0.50, 1e6, []class{clsGroupHigh}},
		{"q_filter_p50_ms", olap, 0.50, 1e6, []class{clsFilter}},
		{"q_join_p50_ms", olap, 0.50, 1e6, []class{clsJoin}},
	} {
		s := m.from.rec.pool(m.classes...)
		ns, ok := s.percentile(m.q)
		if len(s) == 0 || (!ok && !r.cfg.relaxed) {
			return nil, fmt.Errorf("%s: %s: %d samples do not support the %.0fth percentile (need %d beyond it)",
				r.def.name, m.name, len(s), m.q*100, minBeyond)
		}
		res.metrics[m.name] = float64(ns) / m.unit
		res.samples[m.name] = len(s)
	}
	// The readers' tail is reported as q_filter's mean, which carries
	// every stall in proportion. Its upper percentiles are not steady:
	// a tenth of the filters overlap a GC cycle or a latch hand-off, so
	// the 90th and 95th sit on the knee of the distribution and jumped
	// by a quarter between seeds.
	filters := olap.rec.pool(clsFilter)
	res.metrics["q_filter_mean_ms"] = filters.mean() / 1e6
	res.samples["q_filter_mean_ms"] = len(filters)
	if res.failed > 0 {
		res.correct = false
		res.notes = append(res.notes, fmt.Sprintf("%d of %d operations failed", res.failed, res.attempted))
	}
	return res, nil
}

// oracleOf merges the writers' books into the table's expected rows.
func oracleOf(writers []*oltpClient) map[int64][]hana.Value {
	n := 0
	for _, w := range writers {
		n += len(w.rows)
	}
	out := make(map[int64][]hana.Value, n)
	for _, w := range writers {
		for k, row := range w.rows {
			out[k] = row
		}
	}
	return out
}

// verifyAnswers runs each query class once through s and compares the
// answer with the one computed in Go over rows.
func (r *runner) verifyAnswers(s session, rows func(func([]hana.Value))) error {
	lo, hi := amountMax*0.35, amountMax*0.35+filterWidth
	for _, c := range olapClasses {
		ans, err := s.Query(c, lo, hi)
		if err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
		got, err := ans.groups(c)
		if err != nil {
			return err
		}
		if want := r.d.answer(c, rows, lo, hi); !got.equal(want) {
			return fmt.Errorf("%w: %s: %d groups returned, %d expected, or their aggregates differ", errWrongAnswer, c, len(got), len(want))
		}
	}
	return nil
}

// verifyEndState is the oracle differential: the table must hold
// exactly the expected rows. Embedded systems are diffed row by row;
// on the wire the four query classes are compared with their answers
// over the expected rows, and a sample of keys is read back.
func (r *runner) verifyEndState(sys *system, s session, want map[int64][]hana.Value) error {
	iter := func(fn func([]hana.Value)) {
		for _, row := range want {
			fn(row)
		}
	}
	if err := r.verifyAnswers(s, iter); err != nil {
		return fmt.Errorf("end state: %w", err)
	}
	if sys.db == nil {
		n := 0
		for key, row := range want {
			amount, err := s.Point(key)
			if err != nil || amount != row[colAmount].F {
				return fmt.Errorf("end state: key %d reads (%v, %v), want %v", key, amount, err, row[colAmount].F)
			}
			if n++; n == 500 {
				break
			}
		}
		return nil
	}
	seen := 0
	var bad error
	v := sys.db.Table(ordersTable).View(nil)
	defer v.Close()
	v.ScanAll(func(_ hana.RowID, row []hana.Value) bool {
		seen++
		exp, ok := want[row[colID].I]
		if !ok {
			bad = fmt.Errorf("end state: unexpected row %d", row[colID].I)
			return false
		}
		for i := range exp {
			if exp[i] != row[i] {
				bad = fmt.Errorf("end state: row %d column %d is %v, want %v", row[colID].I, i, row[i], exp[i])
				return false
			}
		}
		return true
	})
	if bad == nil && seen != len(want) {
		bad = fmt.Errorf("end state: %d rows, want %d", seen, len(want))
	}
	return bad
}

// recovery times opening the recovery fixture: the loaded directory
// plus a fixed redo tail written natively. Every row of the fixture's
// oracle is re-verified on the recovered system.
func (r *runner) recovery(fixture string) (float64, error) {
	db, err := hana.Open(hana.Options{Dir: fixture})
	if err != nil {
		return 0, fmt.Errorf("recovery fixture: %w", err)
	}
	w := newOLTPClients(r.d, 1)[0]
	s := newNativeSession(db)
	for i, n := 0, r.cfg.scaled(recoveryOps); i < n; i++ {
		w.step(s)
	}
	if _, failed := w.rec.totals(); failed != 0 {
		db.Close()
		return 0, fmt.Errorf("recovery fixture: %d operations failed", failed)
	}
	if err := db.Close(); err != nil {
		return 0, err
	}
	repeats := recoveryRepeats
	if r.cfg.relaxed {
		repeats = 1
	}
	times := make([]float64, repeats)
	for i := range times {
		t0 := time.Now()
		sys, err := r.open(fixture, false)
		if err != nil {
			return 0, fmt.Errorf("recovery: %w", err)
		}
		times[i] = time.Since(t0).Seconds()
		if i == repeats-1 {
			var sess session
			if sess, err = sys.session(); err == nil {
				err = r.verifyEndState(sys, sess, w.rows)
			}
		}
		if cerr := sys.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, fmt.Errorf("recovery: %w", err)
		}
	}
	return median(times), nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// copyDir copies a closed data directory.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
