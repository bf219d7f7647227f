// Benchmarks regenerating the paper's evaluation characteristics, one
// group per experiment of DESIGN.md §5 (E01–E12). cmd/hanabench runs
// the full harness with larger workloads and prints the tables
// recorded in EXPERIMENTS.md; these testing.B benches expose the same
// mechanisms as micro-measurements.
package hana_test

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	hana "repro"
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

func l1Fixture(b *testing.B) *fixture {
	return stageFixture(b, "l1", fixtureRows, func() (*hana.DB, *hana.Table) {
		db := hana.MustOpen(hana.Options{})
		tab, _ := db.CreateTable(orderCfg("l1orders"))
		gen := workload.NewOrderGen(1, 10_000, 1_000)
		tx := db.Begin(hana.TxnSnapshot)
		for _, r := range gen.Rows(fixtureRows) {
			if _, err := tab.Insert(tx, r); err != nil {
				panic(err)
			}
		}
		db.Commit(tx)
		return db, tab
	})
}

func l2Fixture(b *testing.B) *fixture {
	return stageFixture(b, "l2", fixtureRows, func() (*hana.DB, *hana.Table) {
		db := hana.MustOpen(hana.Options{})
		tab, _ := db.CreateTable(orderCfg("l2orders"))
		loadBulk(db, tab, workload.NewOrderGen(1, 10_000, 1_000).Rows(fixtureRows))
		return db, tab
	})
}

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

// --- E01: stage write paths ---

func BenchmarkE01_StageWrite_L1Insert(b *testing.B) {
	db := hana.MustOpen(hana.Options{})
	defer db.Close()
	tab, _ := db.CreateTable(orderCfg("orders"))
	gen := workload.NewOrderGen(1, 10_000, 1_000)
	rows := gen.Rows(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin(hana.TxnSnapshot)
		if _, err := tab.Insert(tx, rows[i]); err != nil {
			b.Fatal(err)
		}
		db.Commit(tx)
	}
}

func BenchmarkE01_StageWrite_L2Bulk(b *testing.B) {
	db := hana.MustOpen(hana.Options{})
	defer db.Close()
	tab, _ := db.CreateTable(orderCfg("orders"))
	gen := workload.NewOrderGen(1, 10_000, 1_000)
	rows := gen.Rows(b.N)
	b.ResetTimer()
	loadBulk(db, tab, rows)
}

// --- E02: incremental L1→L2 merge ---

func BenchmarkE02_L1L2Merge(b *testing.B) {
	const batch = 1_000
	db := hana.MustOpen(hana.Options{})
	defer db.Close()
	cfg := orderCfg("orders")
	cfg.L1MergeBatch = batch
	tab, _ := db.CreateTable(cfg)
	gen := workload.NewOrderGen(1, 10_000, 1_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tx := db.Begin(hana.TxnSnapshot)
		for _, r := range gen.Rows(batch) {
			tab.Insert(tx, r)
		}
		db.Commit(tx)
		b.StartTimer()
		if _, err := tab.MergeL1(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(batch)
}

// --- E03: classic merge and dictionary fast paths ---

func benchClassicMerge(b *testing.B, word func(i int) string) {
	schema := hana.MustSchema([]hana.Column{
		{Name: "id", Kind: hana.Int64},
		{Name: "val", Kind: hana.String},
	}, 0)
	const mainN, deltaN = 50_000, 5_000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := hana.MustOpen(hana.Options{})
		tab, _ := db.CreateTable(hana.TableConfig{Name: "t", Schema: schema, Compress: true, CompactDicts: true})
		base := make([][]hana.Value, mainN)
		for j := range base {
			base[j] = hana.Row(hana.Int(int64(j+1)), hana.Str(fmt.Sprintf("word-%04d", j%1000)))
		}
		loadBulk(db, tab, base)
		drain(tab)
		delta := make([][]hana.Value, deltaN)
		for j := range delta {
			delta[j] = hana.Row(hana.Int(int64(mainN+j+1)), hana.Str(word(j)))
		}
		loadBulk(db, tab, delta)
		b.StartTimer()
		if _, err := tab.MergeMain(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		db.Close()
		b.StartTimer()
	}
}

func BenchmarkE03_ClassicMerge_DisjointDict(b *testing.B) {
	benchClassicMerge(b, func(i int) string { return fmt.Sprintf("fresh-%05d", i%2000) })
}

func BenchmarkE03_ClassicMerge_SubsetDict(b *testing.B) {
	benchClassicMerge(b, func(i int) string { return fmt.Sprintf("word-%04d", i%1000) })
}

func BenchmarkE03_ClassicMerge_AppendDict(b *testing.B) {
	benchClassicMerge(b, func(i int) string { return fmt.Sprintf("zzz-%07d", i) })
}

// --- E03b: column-parallel merge scaling (§4.1) ---

// BenchmarkE03_MergeWorkers measures the same classic L2→main merge
// with the column worker pool at 1/2/4/8 workers. The order schema has
// seven columns, so speedup saturates near min(workers, 7).
func BenchmarkE03_MergeWorkers(b *testing.B) {
	const mainN, deltaN = 60_000, 20_000
	gen := workload.NewOrderGen(1, 10_000, 1_000)
	base := gen.Rows(mainN)
	delta := gen.Rows(deltaN)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := hana.MustOpen(hana.Options{})
				cfg := orderCfg("orders")
				cfg.MergeWorkers = workers
				tab, _ := db.CreateTable(cfg)
				loadBulk(db, tab, base)
				drain(tab)
				loadBulk(db, tab, delta)
				b.StartTimer()
				if _, err := tab.MergeMain(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				db.Close()
				b.StartTimer()
			}
			b.SetBytes(mainN + deltaN)
		})
	}
}

// --- E04: classic vs re-sorting merge ---

func benchStrategyMerge(b *testing.B, strat hana.MergeStrategy) {
	gen := workload.NewOrderGen(1, 5_000, 500)
	rows := gen.Rows(30_000)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := hana.MustOpen(hana.Options{})
		cfg := orderCfg("orders")
		cfg.Strategy = strat
		tab, _ := db.CreateTable(cfg)
		loadBulk(db, tab, rows)
		b.StartTimer()
		drain(tab)
		b.StopTimer()
		if i == 0 {
			b.ReportMetric(float64(tab.Stats().MainBytes)/float64(len(rows)), "mainB/row")
		}
		db.Close()
		b.StartTimer()
	}
}

func BenchmarkE04_Merge_Classic(b *testing.B) { benchStrategyMerge(b, hana.MergeClassic) }
func BenchmarkE04_Merge_Resort(b *testing.B)  { benchStrategyMerge(b, hana.MergeResort) }

// --- E05: full vs partial merge with a large passive main ---

func benchDeltaMerge(b *testing.B, strat hana.MergeStrategy) {
	const base = 100_000
	const deltaN = 5_000
	db := hana.MustOpen(hana.Options{})
	defer db.Close()
	cfg := orderCfg("orders")
	cfg.Strategy = strat
	cfg.ActiveMainMax = base
	tab, _ := db.CreateTable(cfg)
	gen := workload.NewOrderGen(1, 10_000, 1_000)
	loadBulk(db, tab, gen.Rows(base))
	drain(tab)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		loadBulk(db, tab, gen.Rows(deltaN))
		b.StartTimer()
		if _, err := tab.MergeMain(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE05_DeltaMerge_Full(b *testing.B)    { benchDeltaMerge(b, hana.MergeClassic) }
func BenchmarkE05_DeltaMerge_Partial(b *testing.B) { benchDeltaMerge(b, hana.MergePartial) }

// --- E06: queries on single vs split main ---

func splitFixture(b *testing.B) *fixture {
	return stageFixture(b, "split", fixtureRows, func() (*hana.DB, *hana.Table) {
		db := hana.MustOpen(hana.Options{})
		cfg := orderCfg("splitorders")
		cfg.Strategy = hana.MergePartial
		cfg.ActiveMainMax = fixtureRows / 2
		tab, _ := db.CreateTable(cfg)
		gen := workload.NewOrderGen(1, 10_000, 1_000)
		loadBulk(db, tab, gen.Rows(fixtureRows/2))
		drain(tab)
		loadBulk(db, tab, gen.Rows(fixtureRows/2))
		drain(tab)
		if tab.Stats().MainParts < 2 {
			panic("split fixture is not split")
		}
		return db, tab
	})
}

func benchPoint(b *testing.B, f *fixture) {
	rng := rand.New(rand.NewSource(9))
	v := f.tab.View(nil)
	defer v.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v.Get(hana.Int(1+rng.Int63n(int64(f.n)))) == nil {
			b.Fatal("key missing")
		}
	}
}

func benchRange(b *testing.B, f *fixture) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := f.tab.View(nil)
		n := 0
		v.ScanRange(1, hana.Str("C0000"), hana.Str("C0010"), true, false, func(hana.Match) bool {
			n++
			return true
		})
		v.Close()
		if n == 0 {
			b.Fatal("empty range")
		}
	}
}

func BenchmarkE06_PointQuery_SingleMain(b *testing.B) { benchPoint(b, mainFixture(b)) }
func BenchmarkE06_PointQuery_SplitMain(b *testing.B)  { benchPoint(b, splitFixture(b)) }
func BenchmarkE06_RangeQuery_SingleMain(b *testing.B) { benchRange(b, mainFixture(b)) }
func BenchmarkE06_RangeQuery_SplitMain(b *testing.B)  { benchRange(b, splitFixture(b)) }

// --- E07: per-stage read characteristics (Fig. 11 matrix) ---

func benchScanColumn(b *testing.B, f *fixture) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := f.tab.View(nil)
		var sum int64
		v.ScanColumn(5, func(_ hana.RowID, val hana.Value) bool {
			sum += val.I
			return true
		})
		v.Close()
		if sum == 0 {
			b.Fatal("no data")
		}
	}
	b.SetBytes(int64(f.n))
}

func BenchmarkE07_PointQuery_L1(b *testing.B)   { benchPoint(b, l1Fixture(b)) }
func BenchmarkE07_PointQuery_L2(b *testing.B)   { benchPoint(b, l2Fixture(b)) }
func BenchmarkE07_PointQuery_Main(b *testing.B) { benchPoint(b, mainFixture(b)) }
func BenchmarkE07_ColumnScan_L1(b *testing.B)   { benchScanColumn(b, l1Fixture(b)) }
func BenchmarkE07_ColumnScan_L2(b *testing.B)   { benchScanColumn(b, l2Fixture(b)) }
func BenchmarkE07_ColumnScan_Main(b *testing.B) { benchScanColumn(b, mainFixture(b)) }

func BenchmarkE07_MemoryFootprint(b *testing.B) {
	l1, l2, main := l1Fixture(b), l2Fixture(b), mainFixture(b)
	for i := 0; i < b.N; i++ {
		_ = l1.tab.Stats()
	}
	b.ReportMetric(float64(l1.tab.Stats().L1Bytes)/fixtureRows, "L1B/row")
	b.ReportMetric(float64(l2.tab.Stats().L2Bytes)/fixtureRows, "L2B/row")
	b.ReportMetric(float64(main.tab.Stats().MainBytes)/fixtureRows, "mainB/row")
}

// --- E08: the myth — unified table vs row store ---

func BenchmarkE08_MythOLTP_Unified(b *testing.B) {
	db := hana.MustOpen(hana.Options{AutoMerge: true})
	defer db.Close()
	cfg := orderCfg("orders")
	cfg.L1MaxRows = 10_000
	cfg.CheckUnique = true
	tab, _ := db.CreateTable(cfg)
	gen := workload.NewOrderGen(1, 10_000, 1_000)
	ops := gen.Ops(b.N, workload.DefaultMix, 0)
	b.ResetTimer()
	for _, op := range ops {
		tx := db.Begin(hana.TxnSnapshot)
		switch op.Kind {
		case workload.OpInsert:
			tab.Insert(tx, op.Row)
		case workload.OpUpdate:
			tab.UpdateKey(tx, hana.Int(op.Key), op.Row)
		case workload.OpDelete:
			tab.DeleteKey(tx, hana.Int(op.Key))
		case workload.OpPoint:
			v := tab.View(tx)
			v.Get(hana.Int(op.Key))
			v.Close()
		}
		db.Commit(tx)
	}
}

func BenchmarkE08_MythOLAP_Unified(b *testing.B) {
	f := mainFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := hana.NewGraph()
		agg := g.Aggregate(g.Table(f.tab), []int{3},
			hana.Agg{Func: hana.Count}, hana.Agg{Func: hana.Sum, Col: 6})
		if _, err := hana.ExecuteGraph(g, agg, hana.Env{}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(f.n))
}

// --- E09: isolation levels ---

func benchIsolation(b *testing.B, level hana.IsolationLevel) {
	f := mainFixture(b)
	rng := rand.New(rand.NewSource(3))
	tx := f.db.Begin(level)
	defer f.db.Commit(tx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := f.tab.View(tx)
		v.Get(hana.Int(1 + rng.Int63n(int64(f.n))))
		v.Close()
	}
}

func BenchmarkE09_PointRead_TxnSnapshot(b *testing.B)  { benchIsolation(b, hana.TxnSnapshot) }
func BenchmarkE09_PointRead_StmtSnapshot(b *testing.B) { benchIsolation(b, hana.StmtSnapshot) }

// --- E10: logging and savepoints ---

func benchInsertWAL(b *testing.B, dir string) {
	db := hana.MustOpen(hana.Options{Dir: dir})
	defer db.Close()
	tab, _ := db.CreateTable(orderCfg("orders"))
	gen := workload.NewOrderGen(1, 10_000, 1_000)
	rows := gen.Rows(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin(hana.TxnSnapshot)
		if _, err := tab.Insert(tx, rows[i]); err != nil {
			b.Fatal(err)
		}
		if err := db.Commit(tx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_Insert_NoWAL(b *testing.B) { benchInsertWAL(b, "") }

func BenchmarkE10_Insert_WAL(b *testing.B) {
	dir, err := os.MkdirTemp("", "hana-bench")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	benchInsertWAL(b, dir)
}

func BenchmarkE10_Savepoint(b *testing.B) {
	dir, err := os.MkdirTemp("", "hana-bench")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db := hana.MustOpen(hana.Options{Dir: dir})
	defer db.Close()
	tab, _ := db.CreateTable(orderCfg("orders"))
	loadBulk(db, tab, workload.NewOrderGen(1, 10_000, 1_000).Rows(20_000))
	drain(tab)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Savepoint(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_Recovery(b *testing.B) {
	dir, err := os.MkdirTemp("", "hana-bench")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db := hana.MustOpen(hana.Options{Dir: dir})
	tab, _ := db.CreateTable(orderCfg("orders"))
	gen := workload.NewOrderGen(1, 10_000, 1_000)
	for _, r := range gen.Rows(10_000) {
		tx := db.Begin(hana.TxnSnapshot)
		tab.Insert(tx, r)
		db.Commit(tx)
	}
	db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db2, err := hana.Open(hana.Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if db2.Table("orders").Stats().L1Rows != 10_000 {
			b.Fatal("recovery incomplete")
		}
		b.StopTimer()
		db2.Close()
		b.StartTimer()
	}
}

// --- E11: calc graphs ---

var starOnce sync.Once
var starDB *hana.DB
var starSales, starCusts, starProds *hana.Table

func starFixture(b *testing.B) {
	starOnce.Do(func() {
		starDB = hana.MustOpen(hana.Options{})
		sg := workload.NewStarGen(7, 2_000, 200, 365)
		mk := func(name string, schema *hana.Schema, rows [][]hana.Value) *hana.Table {
			t, _ := starDB.CreateTable(hana.TableConfig{Name: name, Schema: schema, Compress: true, CompactDicts: true, L1MaxRows: 1 << 30})
			loadBulk(starDB, t, rows)
			drain(t)
			return t
		}
		starSales = mk("sales", workload.SalesSchema(), sg.SaleRows(100_000))
		starCusts = mk("customers", workload.CustomerSchema(), sg.CustomerRows())
		starProds = mk("products", workload.ProductSchema(), sg.ProductRows())
	})
}

func BenchmarkE11_CalcGraph_StarJoin(b *testing.B) {
	starFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := hana.NewGraph()
		sj := g.StarJoin(g.Table(starSales),
			hana.StarDim{In: g.Table(starCusts), KeyCol: 0, FactCol: 1, Payload: []int{2}},
			hana.StarDim{In: g.Table(starProds), KeyCol: 0, FactCol: 2, Payload: []int{2}},
		)
		agg := g.Aggregate(sj, []int{6, 7}, hana.Agg{Func: hana.Sum, Col: 5})
		if _, err := hana.ExecuteGraph(g, agg, hana.Env{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCSE(b *testing.B, shared bool) {
	starFixture(b)
	// The shared subexpression is a script node (fusion cannot bypass
	// it); CSE runs it once, the duplicated variant per consumer.
	script := func(rows [][]hana.Value) ([][]hana.Value, error) {
		out := make([][]hana.Value, len(rows))
		for i, r := range rows {
			out[i] = []hana.Value{r[0], hana.Int(int64(r[0].F / 100))}
		}
		return out, nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := hana.NewGraph()
		mk := func() *hana.Node {
			return g.Script(g.Project(g.Table(starSales), 5), "bucketize", script)
		}
		var left, right *hana.Node
		if shared {
			s := mk()
			left, right = s, s
		} else {
			left, right = mk(), mk()
		}
		a := g.Aggregate(left, []int{1}, hana.Agg{Func: hana.Count})
		c := g.Aggregate(right, []int{1}, hana.Agg{Func: hana.Sum, Col: 0})
		u := g.Union(g.Limit(a, 5), g.Limit(c, 5))
		if _, err := hana.ExecuteGraph(g, u, hana.Env{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11_CalcGraph_SharedScript(b *testing.B)     { benchCSE(b, true) }
func BenchmarkE11_CalcGraph_DuplicatedScript(b *testing.B) { benchCSE(b, false) }

// --- E12: unified access ---

func BenchmarkE12_GlobalSortedDict(b *testing.B) {
	f := mainFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.tab.GlobalSortedDict(1).Len() == 0 {
			b.Fatal("empty dict")
		}
	}
}

// --- Ablations: the design choices DESIGN.md calls out ---

// benchAblationMerge measures a full merge with a toggled feature and
// reports the resulting main footprint.
func benchAblationMerge(b *testing.B, compress, compactDicts bool) {
	gen := workload.NewOrderGen(1, 5_000, 500)
	rows := gen.Rows(30_000)
	// Churn: updates create dead versions whose dictionary entries
	// only compaction removes.
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := hana.MustOpen(hana.Options{})
		cfg := orderCfg("orders")
		cfg.Compress = compress
		cfg.CompactDicts = compactDicts
		cfg.CheckUnique = false
		tab, _ := db.CreateTable(cfg)
		loadBulk(db, tab, rows)
		// Delete a third of the rows: their values become garbage.
		tx := db.Begin(hana.TxnSnapshot)
		for k := int64(1); k <= 10_000; k++ {
			tab.DeleteKey(tx, hana.Int(rows[k-1][0].I))
		}
		db.Commit(tx)
		b.StartTimer()
		drain(tab)
		b.StopTimer()
		if i == 0 {
			b.ReportMetric(float64(tab.Stats().MainBytes)/20_000, "mainB/liverow")
		}
		db.Close()
		b.StartTimer()
	}
}

func BenchmarkAblation_CompressOn_CompactOn(b *testing.B)  { benchAblationMerge(b, true, true) }
func BenchmarkAblation_CompressOff_CompactOn(b *testing.B) { benchAblationMerge(b, false, true) }
func BenchmarkAblation_CompressOn_CompactOff(b *testing.B) { benchAblationMerge(b, true, false) }

func BenchmarkE12_UniqueCheckedInsert(b *testing.B) {
	db := hana.MustOpen(hana.Options{})
	defer db.Close()
	cfg := orderCfg("orders")
	cfg.CheckUnique = true
	tab, _ := db.CreateTable(cfg)
	gen := workload.NewOrderGen(1, 10_000, 1_000)
	// Spread existing keys across stages.
	loadBulk(db, tab, gen.Rows(20_000))
	drain(tab)
	loadBulk(db, tab, gen.Rows(5_000))
	rows := gen.Rows(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin(hana.TxnSnapshot)
		if _, err := tab.Insert(tx, rows[i]); err != nil {
			b.Fatal(err)
		}
		db.Commit(tx)
	}
}

// --- E13: vectorized batch read path (§3.1) ---

func benchScanAggregate(b *testing.B, size int) {
	f := mainFixture(b)
	groupBy := []int{3}
	aggs := []hana.Agg{{Func: hana.Count}, {Func: hana.Sum, Col: 5}, {Func: hana.Sum, Col: 6}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := hana.CollectBatches(&hana.BatchHashAggregate{
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
		rows, err := hana.CollectBatches(&hana.BatchLimit{N: 10, In: &hana.BatchTableScan{Table: f.tab}})
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
					_, err = hana.CollectBatches(&hana.BatchHashAggregate{
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
	benchCodeAgg(b, 3, hana.Agg{Func: hana.Min, Col: 6}, hana.Agg{Func: hana.Max, Col: 6})
}
func BenchmarkE13_CodeAgg_MinProductByStatus(b *testing.B) {
	benchCodeAgg(b, 4, hana.Agg{Func: hana.Min, Col: 2})
}
func BenchmarkE13_CodeAgg_AvgAmountByProduct(b *testing.B) {
	benchCodeAgg(b, 2, hana.Agg{Func: hana.Avg, Col: 6})
}
