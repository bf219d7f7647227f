package calc

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/mvcc"
	"repro/internal/types"
)

func salesTable(t *testing.T) (*core.Database, *core.Table) {
	t.Helper()
	return salesTableBatched(t, 0)
}

// salesTableBatched is salesTable with an explicit scan batch size, so
// a 100-row table can span many batches.
func salesTableBatched(t *testing.T, batchSize int) (*core.Database, *core.Table) {
	t.Helper()
	db, err := core.OpenDatabase(core.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tab, err := db.CreateTable(core.TableConfig{
		Name: "sales",
		Schema: types.MustSchema([]types.Column{
			{Name: "id", Kind: types.KindInt64},
			{Name: "region", Kind: types.KindString},
			{Name: "amount", Kind: types.KindInt64},
		}, 0),
		Compress: true, CompactDicts: true, BatchSize: batchSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"EMEA", "APJ", "AMER", "EMEA", "APJ"}
	tx := db.Begin(mvcc.TxnSnapshot)
	for i := int64(1); i <= 100; i++ {
		if _, err := tab.Insert(tx, []types.Value{
			types.Int(i), types.Str(regions[i%5]), types.Int(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	return db, tab
}

func TestTableFilterAggregate(t *testing.T) {
	_, tab := salesTable(t)
	g := NewGraph()
	src := g.Table(tab)
	f := g.Filter(src, expr.Cmp{Col: 1, Op: expr.OpEq, Val: types.Str("EMEA")})
	agg := g.Aggregate(f, nil, engine.Agg{Func: engine.AggCount}, engine.Agg{Func: engine.AggSum, Col: 2})
	rows, err := Execute(g, agg, Env{})
	if err != nil {
		t.Fatal(err)
	}
	// EMEA rows: i%5∈{0,3} → 40 rows.
	if len(rows) != 1 || rows[0][0].I != 40 {
		t.Fatalf("rows = %v", rows)
	}
	var wantSum int64
	for i := int64(1); i <= 100; i++ {
		if i%5 == 0 || i%5 == 3 {
			wantSum += i
		}
	}
	if rows[0][1].I != wantSum {
		t.Errorf("sum = %v, want %d", rows[0][1], wantSum)
	}
}

func TestOptimizePushesFilterIntoScan(t *testing.T) {
	_, tab := salesTable(t)
	g := NewGraph()
	src := g.Table(tab)
	f := g.Filter(src, expr.Cmp{Col: 0, Op: expr.OpLe, Val: types.Int(10)})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.Optimize()
	if src.pred == nil {
		t.Error("predicate not pushed into table scan")
	}
	if _, ok := f.pred.(expr.Const); !ok {
		t.Errorf("filter not neutralized: %v", f.pred)
	}
	rows, err := Execute(g, f, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestOptimizeFusesFilters(t *testing.T) {
	g := NewGraph()
	v := g.Values([][]types.Value{{types.Int(1)}, {types.Int(2)}, {types.Int(3)}})
	f1 := g.Filter(v, expr.Cmp{Col: 0, Op: expr.OpGe, Val: types.Int(2)})
	f2 := g.Filter(f1, expr.Cmp{Col: 0, Op: expr.OpLe, Val: types.Int(2)})
	g.Optimize()
	if f2.inputs[0] != v {
		t.Error("filters not fused")
	}
	rows, err := Execute(g, f2, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I != 2 {
		t.Errorf("rows = %v", rows)
	}
}

func TestOptimizeRespectsSharedNodes(t *testing.T) {
	_, tab := salesTable(t)
	g := NewGraph()
	src := g.Table(tab)
	f1 := g.Filter(src, expr.Cmp{Col: 0, Op: expr.OpLe, Val: types.Int(10)})
	f2 := g.Filter(src, expr.Cmp{Col: 0, Op: expr.OpGt, Val: types.Int(90)})
	u := g.Union(f1, f2)
	g.Optimize()
	if src.pred != nil {
		t.Error("shared table scan got a pushed predicate")
	}
	rows, err := Execute(g, u, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestSharedSubexpressionEvaluatedOnce(t *testing.T) {
	g := NewGraph()
	v := g.Values([][]types.Value{{types.Int(1)}, {types.Int(2)}})
	var calls atomic.Int32
	s := g.Script(v, "expensive", func(rows [][]types.Value) ([][]types.Value, error) {
		calls.Add(1)
		return rows, nil
	})
	// Two consumers of the script node ("the result of an operator may
	// have multiple consumers", §2.1).
	a := g.Aggregate(s, nil, engine.Agg{Func: engine.AggCount})
	b := g.Aggregate(s, nil, engine.Agg{Func: engine.AggSum, Col: 0})
	u := g.Union(a, b)
	rows, err := Execute(g, u, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if calls.Load() != 1 {
		t.Errorf("shared script ran %d times, want 1", calls.Load())
	}
}

func TestScriptNodeError(t *testing.T) {
	g := NewGraph()
	v := g.Values(nil)
	boom := errors.New("script boom")
	s := g.Script(v, "fail", func([][]types.Value) ([][]types.Value, error) { return nil, boom })
	if _, err := Execute(g, s, Env{}); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestSplitCombineParallelism(t *testing.T) {
	_, tab := salesTable(t)
	g := NewGraph()
	src := g.Table(tab)
	parts := g.Split(src, 4, 0)
	var branches []*Node
	for _, p := range parts {
		branches = append(branches, g.Aggregate(p, nil, engine.Agg{Func: engine.AggSum, Col: 2}))
	}
	comb := g.Combine(branches...)
	total := g.Aggregate(comb, nil, engine.Agg{Func: engine.AggSum, Col: 0})
	rows, err := Execute(g, total, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I != 5050 {
		t.Fatalf("parallel sum = %v, want 5050", rows)
	}
}

func TestSplitPartitionsAreDisjointAndComplete(t *testing.T) {
	g := NewGraph()
	var in [][]types.Value
	for i := int64(0); i < 97; i++ {
		in = append(in, []types.Value{types.Int(i)})
	}
	v := g.Values(in)
	parts := g.Split(v, 3, 0)
	comb := g.Combine(parts...)
	rows, err := Execute(g, comb, Env{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		if seen[r[0].I] {
			t.Fatalf("value %d in two partitions", r[0].I)
		}
		seen[r[0].I] = true
	}
	if len(seen) != 97 {
		t.Errorf("recombined %d values, want 97", len(seen))
	}
}

func TestStarJoinNode(t *testing.T) {
	_, tab := salesTable(t)
	g := NewGraph()
	fact := g.Table(tab)
	dims := g.Values([][]types.Value{
		{types.Str("EMEA"), types.Str("Europe")},
		{types.Str("APJ"), types.Str("Asia")},
	})
	sj := g.StarJoin(fact, StarDim{In: dims, KeyCol: 0, FactCol: 1, Payload: []int{1}})
	agg := g.Aggregate(sj, []int{3}, engine.Agg{Func: engine.AggCount})
	rows, err := Execute(g, agg, Env{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, r := range rows {
		counts[r[0].S] = r[1].I
	}
	if counts["Europe"] != 40 || counts["Asia"] != 40 {
		t.Errorf("counts = %v", counts)
	}
}

func TestSortLimitProject(t *testing.T) {
	_, tab := salesTable(t)
	g := NewGraph()
	src := g.Table(tab)
	p := g.Project(src, 2, 1)
	s := g.Sort(p, engine.SortSpec{Col: 0, Desc: true})
	l := g.Limit(s, 3)
	rows, err := Execute(g, l, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0].I != 100 || rows[2][0].I != 98 {
		t.Errorf("rows = %v", rows)
	}
}

func TestValidateCatchesBadGraphs(t *testing.T) {
	g := NewGraph()
	v := g.Values(nil)
	g.nodes = append(g.nodes, &Node{id: g.nextID, kind: KindFilter, inputs: []*Node{v}})
	if err := g.Validate(); err == nil {
		t.Error("filter without predicate accepted")
	}
	g2 := NewGraph()
	if g2.Union(); g2.Validate() == nil {
		t.Error("empty union accepted")
	}
	g3 := NewGraph()
	v3 := g3.Values(nil)
	if g3.Project(v3); g3.Validate() == nil {
		t.Error("empty projection accepted")
	}
}

func TestExplain(t *testing.T) {
	_, tab := salesTable(t)
	g := NewGraph()
	src := g.Table(tab)
	f := g.Filter(src, expr.Cmp{Col: 0, Op: expr.OpGt, Val: types.Int(5)})
	a := g.Aggregate(f, nil, engine.Agg{Func: engine.AggCount})
	b := g.Aggregate(f, nil, engine.Agg{Func: engine.AggSum, Col: 2})
	u := g.Union(a, b)
	out := g.Explain(u)
	for _, frag := range []string{"union", "aggregate", "filter", "table(sales)", "(shared)"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, out)
		}
	}
}

func TestTransactionalSnapshotInGraph(t *testing.T) {
	db, tab := salesTable(t)
	tx := db.Begin(mvcc.TxnSnapshot) // snapshot: 100 rows

	// Another txn adds rows afterwards.
	tx2 := db.Begin(mvcc.TxnSnapshot)
	for i := int64(101); i <= 110; i++ {
		tab.Insert(tx2, []types.Value{types.Int(i), types.Str("NEW"), types.Int(i)})
	}
	db.Commit(tx2)

	g := NewGraph()
	agg := g.Aggregate(g.Table(tab), nil, engine.Agg{Func: engine.AggCount})
	rows, err := Execute(g, agg, Env{Txn: tx})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I != 100 {
		t.Errorf("snapshot graph saw %v rows, want 100", rows[0][0])
	}
	db.Commit(tx)
	rows, _ = Execute(g, agg, Env{})
	if rows[0][0].I != 110 {
		t.Errorf("fresh graph saw %v rows, want 110", rows[0][0])
	}
	_ = fmt.Sprint()
}
