// Micro-benchmarks of the vectorized read path (§3.1): the batch
// scan-aggregate at several batch sizes, limit pushdown, and the fused
// code-domain aggregate against the hash aggregate. The shared fixtures
// below also feed the overhead gates in bench_obs_test.go and
// bench_explain_test.go. The gating end-to-end benchmark is
// `go run ./benchmark` (BENCHMARK.json); run these with `make bench`.
package hana_test

import (
	"sync"
	"testing"

	hana "repro"
	"repro/internal/engine"
	"repro/internal/workload"
)

// fixture builds a table pre-loaded into a chosen stage.
type fixture struct {
	db  *hana.DB
	tab *hana.Table
	n   int
}

var fixtures sync.Map // key string → *fixture

func stageFixture(b *testing.B, key string, n int, build func() (*hana.DB, *hana.Table)) *fixture {
	b.Helper()
	if f, ok := fixtures.Load(key); ok {
		return f.(*fixture)
	}
	db, tab := build()
	f := &fixture{db: db, tab: tab, n: n}
	fixtures.Store(key, f)
	return f
}

func orderCfg(name string) hana.TableConfig {
	return hana.TableConfig{
		Name: name, Schema: workload.OrderSchema(),
		L1MaxRows: 1 << 30, Compress: true, CompactDicts: true,
	}
}

func loadBulk(db *hana.DB, tab *hana.Table, rows [][]hana.Value) {
	tx := db.Begin(hana.TxnSnapshot)
	if _, err := tab.BulkInsert(tx, rows); err != nil {
		panic(err)
	}
	if err := db.Commit(tx); err != nil {
		panic(err)
	}
}

func drain(tab *hana.Table) {
	for {
		if _, err := tab.MergeL1(); err != nil {
			panic(err)
		}
		if _, err := tab.MergeMain(); err != nil {
			panic(err)
		}
		st := tab.Stats()
		if st.L1Rows == 0 && st.L2Rows == 0 && st.FrozenL2Rows == 0 {
			return
		}
	}
}

const fixtureRows = 50_000

func mainFixture(b *testing.B) *fixture {
	return stageFixture(b, "main", fixtureRows, func() (*hana.DB, *hana.Table) {
		db := hana.MustOpen(hana.Options{})
		cfg := orderCfg("mainorders")
		cfg.Strategy = hana.MergeResort
		tab, _ := db.CreateTable(cfg)
		loadBulk(db, tab, workload.NewOrderGen(1, 10_000, 1_000).Rows(fixtureRows))
		drain(tab)
		return db, tab
	})
}

// --- E13: vectorized batch read path (§3.1) ---

func benchScanAggregate(b *testing.B, size int) {
	f := mainFixture(b)
	groupBy := []int{3}
	aggs := []hana.Agg{{Func: hana.Count}, {Func: hana.Sum, Col: 5}, {Func: hana.Sum, Col: 6}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := engine.CollectBatches(&hana.BatchHashAggregate{
			In: &hana.BatchTableScan{Table: f.tab, BatchSize: size}, GroupBy: groupBy, Aggs: aggs,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE13_ScanAggregate_Batch(b *testing.B)      { benchScanAggregate(b, 0) }
func BenchmarkE13_ScanAggregate_Batch64(b *testing.B)    { benchScanAggregate(b, 64) }
func BenchmarkE13_ScanAggregate_Batch16384(b *testing.B) { benchScanAggregate(b, 16384) }

func BenchmarkE13_LimitPushdown(b *testing.B) {
	f := mainFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := engine.CollectBatches(&engine.BatchLimit{N: 10, In: &hana.BatchTableScan{Table: f.tab}})
		if err != nil || len(rows) != 10 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
}

// --- E13: the fused code-domain aggregate vs the hash aggregate ---

// codeAggFixture holds 200k rows merged into main plus 5k rows in the
// L1-delta, scanned with the default worker count.
func codeAggFixture(b *testing.B) *fixture {
	return stageFixture(b, "codeagg", 205_000, func() (*hana.DB, *hana.Table) {
		db := hana.MustOpen(hana.Options{})
		tab, _ := db.CreateTable(orderCfg("codeagg"))
		gen := workload.NewOrderGen(1, 10_000, 1_000)
		loadBulk(db, tab, gen.Rows(200_000))
		drain(tab)
		loadBulk(db, tab, gen.Rows(5_000))
		return db, tab
	})
}

// benchCodeAgg runs one single-column GROUP BY through the calc graph
// — Aggregate(Table), which plans to the fused code-domain operator —
// and through BatchHashAggregate over a morsel-parallel table scan.
func benchCodeAgg(b *testing.B, group int, aggs ...hana.Agg) {
	f := codeAggFixture(b)
	for _, path := range []string{"fused", "hash"} {
		b.Run(path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if path == "fused" {
					g := hana.NewGraph()
					_, err = hana.ExecuteGraph(g, g.Aggregate(g.Table(f.tab), []int{group}, aggs...), hana.Env{})
				} else {
					_, err = engine.CollectBatches(&hana.BatchHashAggregate{
						In: &hana.BatchTableScan{Table: f.tab}, GroupBy: []int{group}, Aggs: aggs,
					})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE13_CodeAgg_MinMaxAmountByRegion(b *testing.B) {
	benchCodeAgg(b, 3, hana.Agg{Func: engine.AggMin, Col: 6}, hana.Agg{Func: engine.AggMax, Col: 6})
}
func BenchmarkE13_CodeAgg_MinProductByStatus(b *testing.B) {
	benchCodeAgg(b, 4, hana.Agg{Func: engine.AggMin, Col: 2})
}
func BenchmarkE13_CodeAgg_AvgAmountByProduct(b *testing.B) {
	benchCodeAgg(b, 2, hana.Agg{Func: engine.AggAvg, Col: 6})
}
