package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s sorted
	for i := int64(1); i <= 1000; i++ {
		s = append(s, i)
	}
	for _, tc := range []struct {
		q    float64
		want int64
		ok   bool
	}{
		{0.50, 500, true},
		{0.90, 900, true},
		{0.99, 990, true},   // exactly 10 samples beyond
		{0.995, 995, false}, // 5 beyond
	} {
		got, ok := s.percentile(tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(%v) = %d, %v; want %d, %v", tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := sorted(nil).percentile(0.5); ok {
		t.Error("empty sample set reported a median")
	}
	if v, ok := (sorted{7}).percentile(0.5); v != 7 || !ok {
		t.Errorf("single sample median = %d, %v", v, ok)
	}
	if _, ok := s[:999].percentile(0.99); ok {
		t.Error("p99 of 999 samples has only 9 beyond it and must not be reported")
	}
}

func TestRecorderCountsAndPools(t *testing.T) {
	a, b := newRecorder(4), newRecorder(4)
	a.observe(clsInsert, 30*time.Nanosecond, nil)
	a.observe(clsUpdate, 10*time.Nanosecond, nil)
	a.observe(clsInsert, 0, errWrongAnswer)
	b.observe(clsDelete, 20*time.Nanosecond, nil)
	m := merged(a, b)
	if att, failed := m.totals(); att != 4 || failed != 1 {
		t.Fatalf("totals = %d attempted, %d failed; want 4, 1", att, failed)
	}
	got := m.pool(writeClasses...)
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("pooled writes = %v, want [10 20 30]", got)
	}
	if share := got.shareAbove(15); math.Abs(share-2.0/3) > 1e-9 {
		t.Fatalf("shareAbove(15) = %v, want 2/3", share)
	}
	a.reset()
	if att, _ := a.totals(); att != 0 || len(a.samples[clsInsert]) != 0 {
		t.Fatal("reset left samples behind")
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkJSON
	if err := json.Unmarshal(buf, &file); err != nil {
		t.Fatal(err)
	}
	want := benchmarkJSON{
		Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds,
		Workloads: workloadSpecs, EndToEnd: endToEndSpecs, PerLayer: perLayerSpecs,
	}
	got, _ := json.Marshal(file)
	exp, _ := json.Marshal(want)
	if string(got) != string(exp) {
		t.Errorf("BENCHMARK.json and spec.go/layers.go differ:\nfile: %s\ncode: %s", got, exp)
	}

	if len(workloadSpecs) != len(workloadDefs) {
		t.Fatalf("%d workload specs, %d workload definitions", len(workloadSpecs), len(workloadDefs))
	}
	seen := map[string]bool{}
	for i, w := range workloadSpecs {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d is %q in the spec and %q in the definitions", i, w.Name, workloadDefs[i].name)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or why missing or over 200 characters (%d)", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	setup := false
	for _, m := range endToEndSpecs {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(endToEndSpecs) > 16 || len(perLayerSpecs) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(endToEndSpecs), len(perLayerSpecs))
	}
	for _, m := range append(append([]metricSpec{}, endToEndSpecs...), perLayerSpecs...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric %q: bad or repeated name", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("metric %q: unit %q or direction %q invalid", m.Name, m.Unit, m.Better)
		}
	}
}

// TestSmoke runs every workload at a fiftieth of its size for one
// second, measured and traced, and checks that exactly the declared
// metrics come out, every oracle check passes and nothing is left
// running or on disk.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts hanaserver")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{seed: 7, seconds: 1, scale: 50, relaxed: true, root: root, outDir: t.TempDir()}
	var live liveRunners
	for i := range workloadDefs {
		def := &workloadDefs[i]
		for _, pass := range []struct {
			traced bool
			specs  []metricSpec
		}{{false, endToEndSpecs}, {true, perLayerSpecs}} {
			res, err := once(cfg, def, pass.traced, &live)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", def.name, pass.traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s (traced=%v): correct=%v attempted=%d failed=%d notes=%v",
					def.name, pass.traced, res.correct, res.attempted, res.failed, res.notes)
			}
			if len(res.metrics) != len(pass.specs) {
				t.Errorf("%s (traced=%v): %d metrics emitted, %d declared", def.name, pass.traced, len(res.metrics), len(pass.specs))
			}
			for _, m := range pass.specs {
				v, ok := res.metrics[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s (traced=%v): metric %s missing or not finite (%v)", def.name, pass.traced, m.Name, v)
				}
				if !pass.traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", def.name, m.Name, v)
				}
			}
			if pass.traced {
				if _, err := os.Stat(res.tracePath); err != nil {
					t.Errorf("%s: trace file: %v", def.name, err)
				}
				var line map[string]any
				if err := json.Unmarshal([]byte(contractLine(res, pass.specs)), &line); err != nil || len(line) != 4 {
					t.Errorf("%s: contract line does not parse into its four keys: %v", def.name, err)
				}
			}
		}
	}
	if n := liveServerCount(); n != 0 {
		t.Errorf("%d server processes left running", n)
	}
	left, _ := filepath.Glob(filepath.Join(cfg.outDir, "tmp-*"))
	if len(left) != 0 {
		t.Errorf("temp directories left behind: %v", left)
	}
}
