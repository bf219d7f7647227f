// E14: observability overhead. The metrics layer is wired into the
// hottest paths (per-write histograms, per-batch scan counters), so
// the repo carries a measurement proving the instrumented engine stays
// within 2% of the disabled-registry baseline on a large scan.
package hana_test

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	hana "repro"
	"repro/internal/workload"
)

// e14Fixture builds a fully merged table of n rows under the given
// registry (nil = disabled instruments).
func e14Fixture(name string, n int, reg *hana.MetricsRegistry) (*hana.DB, *hana.Table) {
	db := hana.MustOpen(hana.Options{Obs: reg})
	cfg := orderCfg(name)
	tab, err := db.CreateTable(cfg)
	if err != nil {
		panic(err)
	}
	gen := workload.NewOrderGen(1, 10_000, 1_000)
	const chunk = 100_000
	for done := 0; done < n; done += chunk {
		m := chunk
		if n-done < m {
			m = n - done
		}
		loadBulk(db, tab, gen.Rows(m))
	}
	drain(tab)
	return db, tab
}

// e14Scan runs one full-table batch scan and returns the row count.
func e14Scan(tab *hana.Table) int {
	v := tab.View(nil)
	defer v.Close()
	n := 0
	v.ScanBatches(nil, nil, 0, func(b *hana.Batch) bool { n += b.Rows(); return true })
	return n
}

// TestE14ObsOverhead is the threshold gate behind `make obs-bench`:
// it scans a 1M-row main store on a database with disabled instruments
// and on one with a live registry, and fails if the enabled scan
// exceeds the disabled one by more than 2% (see overheadGate for the
// estimator). Gated on OBS_BENCH so plain `go test ./...` stays fast.
func TestE14ObsOverhead(t *testing.T) {
	if os.Getenv("OBS_BENCH") == "" {
		t.Skip("set OBS_BENCH=1 (or run `make obs-bench`) for the overhead measurement")
	}
	const rows = 1_000_000
	dbOff, tabOff := e14Fixture("e14off", rows, nil)
	defer dbOff.Close()
	dbOn, tabOn := e14Fixture("e14on", rows, hana.NewMetrics())
	defer dbOn.Close()

	timeScan := func(tab *hana.Table) func() time.Duration {
		return func() time.Duration {
			start := time.Now()
			if got := e14Scan(tab); got != rows {
				t.Fatalf("scan returned %d rows, want %d", got, rows)
			}
			return time.Since(start)
		}
	}
	overheadGate(t, "E14: 1M-row scan, instruments disabled vs enabled", timeScan(tabOff), timeScan(tabOn))
}

// overheadGate fails t if path on is more than 2% slower than path
// off. The estimator is built for a noisy shared host, where single
// executions flap by ±30%: the two paths interleave at
// single-execution granularity, alternating which runs first, so load
// drift hits both sample sets alike; each side is summarized by the
// mean of its fastest half, a trimmed estimator that one lucky
// scheduling quantum cannot decide the way it decides a minimum; and a
// genuine regression exceeds the budget on every one of up to 4
// attempts, where host jitter does not.
func overheadGate(t *testing.T, what string, off, on func() time.Duration) {
	t.Helper()
	const (
		budget   = 0.02
		rounds   = 24
		attempts = 4
	)
	// Warm both paths so neither pays first-touch costs in the
	// measured rounds.
	off()
	on()
	trimmed := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		keep := ds[:len(ds)/2]
		var sum time.Duration
		for _, d := range keep {
			sum += d
		}
		return sum / time.Duration(len(keep))
	}
	for attempt := 1; ; attempt++ {
		runtime.GC() // start each attempt with equal collector debt
		offs := make([]time.Duration, 0, rounds)
		ons := make([]time.Duration, 0, rounds)
		for i := 0; i < rounds; i++ {
			if i%2 == 0 {
				offs = append(offs, off())
				ons = append(ons, on())
			} else {
				ons = append(ons, on())
				offs = append(offs, off())
			}
		}
		offMean, onMean := trimmed(offs), trimmed(ons)
		overhead := float64(onMean-offMean) / float64(offMean)
		t.Logf("%s: off=%v on=%v overhead=%+.2f%% (attempt %d)", what, offMean, onMean, overhead*100, attempt)
		if overhead <= budget {
			return
		}
		if attempt == attempts {
			t.Errorf("%s: overhead %.2f%% exceeds the %.0f%% budget on all %d attempts (off=%v on=%v)",
				what, overhead*100, budget*100, attempts, offMean, onMean)
			return
		}
	}
}

// Benchmark variants of the same comparison for benchstat use:
//
//	go test -run xxx -bench E14 -count 10 .
func benchE14(b *testing.B, reg *hana.MetricsRegistry, key string) {
	f := stageFixture(b, key, fixtureRows, func() (*hana.DB, *hana.Table) {
		return e14Fixture(fmt.Sprintf("bench%s", key), fixtureRows, reg)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e14Scan(f.tab) != f.n {
			b.Fatal("short scan")
		}
	}
	b.SetBytes(int64(f.n))
}

func BenchmarkE14_Scan_ObsDisabled(b *testing.B) { benchE14(b, nil, "e14off") }
func BenchmarkE14_Scan_ObsEnabled(b *testing.B)  { benchE14(b, hana.NewMetrics(), "e14on") }
