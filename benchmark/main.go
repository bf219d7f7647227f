// Command benchmark is the repository's benchmark: four HTAP workloads
// against the engine's public surfaces, every result checked against
// an oracle, every metric printed by name with its unit. BENCHMARK.json
// at the repository root declares the workloads and metrics; README.md
// in this directory explains them.
//
//	go run ./benchmark                       all workloads, measured then traced
//	go run ./benchmark -workload olap_sql    one workload, measured
//	go run ./benchmark -workload olap_sql -trace 1
//	go run ./benchmark -repeat 5             calibration: spread of every metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadFlag = flag.String("workload", "", "workload to run (default: all of them)")
		seed         = flag.Int64("seed", 42, "seed of every generated input")
		seconds      = flag.Float64("seconds", runSeconds, "measured seconds per run")
		trace        = flag.Int("trace", -1, "0 = measured run (end-to-end metrics), 1 = traced run (per-layer metrics); default both")
		repeat       = flag.Int("repeat", 1, "run the measured pass this many times and report each metric's median and spread")
		jsonOut      = flag.String("json", "", "also write the full report to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 || *repeat < 1 || *seconds <= 0 || *trace < -1 || *trace > 1 {
		flag.Usage()
		return 2
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cfg := &config{seed: *seed, seconds: *seconds, scale: 1, root: root,
		outDir: filepath.Join(root, "benchmark", "out")}

	defs := workloadDefs
	if *workloadFlag != "" {
		def := findWorkload(*workloadFlag)
		if def == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadFlag)
			return 2
		}
		defs = []workloadDef{*def}
	}

	// A run interrupted from outside still removes its data directories
	// and reaps its server: runners register here.
	var live liveRunners
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		live.abort()
		os.Exit(130)
	}()

	rep := &report{Host: hostInfo(), Seed: *seed, Seconds: *seconds, FlushPolicy: flushPolicy, Clients: clientCounts()}
	status := 0
	var last *result
	for i := range defs {
		def := &defs[i]
		if *trace != 1 {
			results, err := repeated(cfg, def, *repeat, &live)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			for _, res := range results {
				if !res.correct {
					status = 1
				}
			}
			last = results[len(results)-1]
			rep.add(def.name, results, endToEndSpecs)
			if *repeat > 1 && !rep.withinBounds(def.name) {
				status = 1
			}
		}
		if *trace != 0 {
			res, err := once(cfg, def, true, &live)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !res.correct {
				status = 1
			}
			last = res
			rep.add(def.name, []*result{res}, perLayerSpecs)
		}
	}
	rep.print(os.Stdout)
	if *jsonOut != "" {
		buf, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if n := liveServerCount(); n != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d server processes still running at exit\n", n)
		status = 1
	}
	// The contract line: one workload, one pass, last on standard output.
	if *workloadFlag != "" && *trace >= 0 {
		specs := endToEndSpecs
		if *trace == 1 {
			specs = perLayerSpecs
		}
		fmt.Println(contractLine(last, specs))
	}
	return status
}

// once runs one pass of one workload and removes what it left on disk.
func once(cfg *config, def *workloadDef, traced bool, live *liveRunners) (*result, error) {
	r, err := newRunner(cfg, def)
	if err != nil {
		return nil, err
	}
	live.add(r)
	defer live.remove(r)
	defer r.cleanup()
	if traced {
		return r.traced()
	}
	return r.measured()
}

func repeated(cfg *config, def *workloadDef, k int, live *liveRunners) ([]*result, error) {
	out := make([]*result, 0, k)
	for i := 0; i < k; i++ {
		res, err := once(cfg, def, false, live)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// contractLine renders the result in the driver's format.
func contractLine(res *result, specs []metricSpec) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, max(res.attempted, 1), res.failed, map[string]value{}}
	for _, m := range specs {
		out.Metrics[m.Name] = value{res.metrics[m.Name], m.Unit}
	}
	buf, _ := json.Marshal(out)
	return string(buf)
}

// flushPolicy is the same on every workload and both sides of any
// comparison: what hanaserver ships.
const flushPolicy = "SyncOnCommit=false (redo log buffered, fsync at savepoint only)"

type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os_arch"`
}

func hostInfo() host {
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS + "/" + runtime.GOARCH}
}

// clientCounts describes each workload's closed-loop clients per phase.
func clientCounts() map[string]string {
	out := map[string]string{}
	for _, def := range workloadDefs {
		s := ""
		for i, p := range def.phases {
			if i > 0 {
				s += ", then "
			}
			s += fmt.Sprintf("%d writers + %d analysts for %.0f%% of the run", p.writers, p.analysts, p.share*100)
		}
		out[def.name] = s + " (closed loop, " + def.path.String() + ")"
	}
	return out
}

// liveRunners is the set of runs whose temp directories exist.
type liveRunners struct {
	mu      sync.Mutex
	runners map[*runner]bool
}

func (l *liveRunners) add(r *runner) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.runners == nil {
		l.runners = map[*runner]bool{}
	}
	l.runners[r] = true
}

func (l *liveRunners) remove(r *runner) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.runners, r)
}

// abort is the signal path: kill the servers, delete what is on disk;
// the process exits next.
func (l *liveRunners) abort() {
	killServers()
	l.mu.Lock()
	defer l.mu.Unlock()
	for r := range l.runners {
		r.cleanup()
	}
}

// ---- report ----

type metricReport struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	Values  []float64 `json:"values"`
	Median  float64   `json:"median"`
	Spread  float64   `json:"spread"` // (max-min)/median over the repeats
	Samples int       `json:"samples,omitempty"`
}

type workloadReport struct {
	Workload  string         `json:"workload"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Notes     []string       `json:"notes,omitempty"`
	Metrics   []metricReport `json:"metrics"`
	Spans     []spanSummary  `json:"spans,omitempty"`
	Trace     string         `json:"trace_file,omitempty"`
}

type report struct {
	Host        host              `json:"host"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	FlushPolicy string            `json:"flush_policy"`
	Clients     map[string]string `json:"clients"`
	Workloads   []*workloadReport `json:"workloads"`
}

func (rep *report) add(name string, results []*result, specs []metricSpec) {
	w := &workloadReport{Workload: name, Correct: true}
	for _, res := range results {
		w.Correct = w.Correct && res.correct
		w.Attempted += res.attempted
		w.Failed += res.failed
	}
	lastRes := results[len(results)-1]
	w.Notes, w.Spans, w.Trace = lastRes.notes, lastRes.spans, lastRes.tracePath
	for _, m := range specs {
		mr := metricReport{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound, Samples: lastRes.samples[m.Name]}
		for _, res := range results {
			mr.Values = append(mr.Values, res.metrics[m.Name])
		}
		mr.Median = median(mr.Values)
		if mr.Median != 0 {
			mr.Spread = (slices.Max(mr.Values) - slices.Min(mr.Values)) / mr.Median
		}
		w.Metrics = append(w.Metrics, mr)
	}
	rep.Workloads = append(rep.Workloads, w)
}

// withinBounds reports whether every end-to-end metric of the named
// workload repeated within its bound.
func (rep *report) withinBounds(name string) bool {
	ok := true
	for _, w := range rep.Workloads {
		if w.Workload != name {
			continue
		}
		for _, m := range w.Metrics {
			if m.Bound > 0 && m.Spread > m.Bound {
				ok = false
			}
		}
	}
	return ok
}

func (rep *report) print(out *os.File) {
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d %s %s\n", rep.Host.NumCPU, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.OS)
	fmt.Fprintf(out, "seed=%d  measured seconds per run=%g  warm-up=%gs  flush policy: %s\n", rep.Seed, rep.Seconds, warmupSeconds, rep.FlushPolicy)
	for _, w := range rep.Workloads {
		fmt.Fprintf(out, "\n== %s  [%s]\n", w.Workload, rep.Clients[w.Workload])
		fmt.Fprintf(out, "   correct=%v attempted=%d failed=%d\n", w.Correct, w.Attempted, w.Failed)
		for _, n := range w.Notes {
			fmt.Fprintf(out, "   note: %s\n", n)
		}
		for _, m := range w.Metrics {
			line := fmt.Sprintf("   %-42s %14.4f %-6s (%s is better", m.Name, m.Median, m.Unit, m.Better)
			if m.Bound > 0 {
				line += fmt.Sprintf(", bound %.2f", m.Bound)
			}
			line += ")"
			if m.Samples > 0 {
				line += fmt.Sprintf(" n=%d", m.Samples)
			}
			if len(m.Values) > 1 {
				line += fmt.Sprintf(" spread=%.3f over %d runs", m.Spread, len(m.Values))
				if m.Bound > 0 && m.Spread > m.Bound {
					line += "  UNRESOLVED: spread exceeds bound"
				}
			}
			fmt.Fprintln(out, line)
		}
		if len(w.Spans) > 0 {
			fmt.Fprintf(out, "   spans (%s):\n", w.Trace)
			for _, s := range w.Spans {
				fmt.Fprintf(out, "     %-24s n=%-9d total=%9.3fs self=%9.3fs mean self=%10.2fus\n", s.Name, s.Count, s.TotalSeconds, s.SelfSeconds, s.MeanSelfMicro)
			}
		}
	}
	fmt.Fprintf(out, "\nfinished %s\n", time.Now().Format(time.RFC3339))
}
