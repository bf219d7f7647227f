package calc

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/types"
)

// TestFusedAggregateRule pins the one rule that picks the fused
// code-domain aggregate: an Aggregate whose input is an exclusively
// owned, unfiltered table scan and which groups on exactly one column.
// It is a property of the query, so the choice is the same for every
// scan-worker count; every other shape plans as BatchHashAggregate.
func TestFusedAggregateRule(t *testing.T) {
	db, tab := salesTable(t)
	cnt := engine.Agg{Func: engine.AggCount}
	cases := []struct {
		name  string
		build func(g *Graph, t *core.Table) *Node
		fused bool
	}{
		{"one group column", func(g *Graph, t *core.Table) *Node {
			return g.Aggregate(g.Table(t), []int{1}, cnt, engine.Agg{Func: engine.AggMax, Col: 2})
		}, true},
		{"as of", func(g *Graph, t *core.Table) *Node {
			return g.Aggregate(g.TableAsOf(t, 1), []int{1}, cnt)
		}, true},
		{"pushed predicate", func(g *Graph, t *core.Table) *Node {
			return g.Aggregate(g.Filter(g.Table(t), lePred{col: 0, v: types.Int(60)}), []int{1}, cnt)
		}, false},
		{"two group columns", func(g *Graph, t *core.Table) *Node {
			return g.Aggregate(g.Table(t), []int{1, 2}, cnt)
		}, false},
		{"global", func(g *Graph, t *core.Table) *Node {
			return g.Aggregate(g.Table(t), nil, cnt)
		}, false},
		{"join input", func(g *Graph, t *core.Table) *Node {
			return g.Aggregate(g.Join(g.Table(t), g.Table(t), 0, 0), []int{1}, cnt)
		}, false},
	}
	for _, workers := range []int{1, 4} {
		table, err := db.CreateTable(core.TableConfig{
			Name: fmt.Sprintf("sales_w%d", workers), Schema: tab.Schema(),
			Compress: true, CompactDicts: true, ScanWorkers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			g := NewGraph()
			root := c.build(g, table)
			if err := g.compile(); err != nil {
				t.Fatal(err)
			}
			it, err := newPlanner(Env{}, root, nil).build(root)
			if err != nil {
				t.Fatal(err)
			}
			_, fused := it.(*engine.TableAggregate)
			_, hash := it.(*engine.BatchHashAggregate)
			if fused != c.fused || fused == hash {
				t.Errorf("workers=%d %s: planned %T, want fused=%v", workers, c.name, it, c.fused)
			}
		}
	}
}

// TestAggregateTableFusion verifies the executor's fused
// scan-aggregate path (Aggregate over an exclusive table scan)
// produces the same result as the generic materialize-then-aggregate
// plan, including with a pushed-down filter.
func TestAggregateTableFusion(t *testing.T) {
	_, tab := salesTable(t)

	run := func(withFilter bool, forceGeneric bool) map[string][2]int64 {
		g := NewGraph()
		src := g.Table(tab)
		in := src
		if withFilter {
			in = g.Filter(src, lePred{col: 0, v: types.Int(60)})
		}
		if forceGeneric {
			// A second consumer disables fusion (CSE wins instead).
			g.Limit(src, 1)
		}
		agg := g.Aggregate(in, []int{1}, engine.Agg{Func: engine.AggCount}, engine.Agg{Func: engine.AggSum, Col: 2})
		rows, err := Execute(g, agg, Env{})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][2]int64{}
		for _, r := range rows {
			out[r[0].S] = [2]int64{r[1].I, r[2].I}
		}
		return out
	}
	for _, withFilter := range []bool{false, true} {
		fused := run(withFilter, false)
		generic := run(withFilter, true)
		if len(fused) != len(generic) {
			t.Fatalf("filter=%v: %v vs %v", withFilter, fused, generic)
		}
		total := int64(0)
		for k, f := range fused {
			if generic[k] != f {
				t.Fatalf("filter=%v group %s: fused %v, generic %v", withFilter, k, f, generic[k])
			}
			total += f[0]
		}
		want := int64(100)
		if withFilter {
			want = 60
		}
		if total != want {
			t.Fatalf("filter=%v: counts sum to %d, want %d", withFilter, total, want)
		}
	}
}

// TestProjectionPushdownSkipsSharedScan ensures a scan consumed twice
// keeps all columns (one consumer may need different ones).
func TestProjectionPushdownSkipsSharedScan(t *testing.T) {
	_, tab := salesTable(t)
	g := NewGraph()
	src := g.Table(tab)
	a := g.Aggregate(src, []int{1}, engine.Agg{Func: engine.AggCount})
	b := g.Aggregate(src, nil, engine.Agg{Func: engine.AggSum, Col: 2})
	u := g.Union(g.Limit(a, 10), g.Limit(b, 10))
	g.Optimize()
	if src.tableCols != nil {
		t.Fatalf("shared scan narrowed: %v", src.tableCols)
	}
	if _, err := Execute(g, u, Env{}); err != nil {
		t.Fatal(err)
	}
}

// TestProjectionPushdownIntoProject verifies project(table) narrows
// the scan and becomes a pass-through.
func TestProjectionPushdownIntoProject(t *testing.T) {
	_, tab := salesTable(t)
	g := NewGraph()
	src := g.Table(tab)
	p := g.Project(src, 2, 0)
	g.Optimize()
	if len(src.tableCols) != 2 || src.tableCols[0] != 2 || src.tableCols[1] != 0 {
		t.Fatalf("tableCols = %v", src.tableCols)
	}
	rows, err := Execute(g, p, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Column order: amount then id.
	if rows[0][0].Kind != types.KindInt64 || rows[0][1].Kind != types.KindInt64 {
		t.Fatalf("row shape = %v", rows[0])
	}
	// amount column equals id for this fixture (amount = i).
	for _, r := range rows {
		if r[0].I != r[1].I {
			t.Fatalf("projection order wrong: %v", r)
		}
	}
}

// TestPushdownComposesWithFilter: filter pushes into the scan first,
// then the aggregate narrows the output columns; the predicate keeps
// original ordinals.
func TestPushdownComposesWithFilter(t *testing.T) {
	_, tab := salesTable(t)
	g := NewGraph()
	src := g.Table(tab)
	f := g.Filter(src, Cmp(0, types.Int(50)))
	agg := g.Aggregate(f, nil, engine.Agg{Func: engine.AggSum, Col: 2})
	rows, err := Execute(g, agg, Env{})
	if err != nil {
		t.Fatal(err)
	}
	// sum of amounts (== ids) for id <= 50: 1275.
	if len(rows) != 1 || rows[0][0].I != 1275 {
		t.Fatalf("rows = %v", rows)
	}
}

// Cmp builds a ≤ predicate without importing expr in the test body.
func Cmp(col int, v types.Value) interface {
	Eval([]types.Value) bool
	String() string
} {
	return lePred{col: col, v: v}
}

type lePred struct {
	col int
	v   types.Value
}

func (p lePred) Eval(row []types.Value) bool {
	return !row[p.col].IsNull() && types.Compare(row[p.col], p.v) <= 0
}
func (p lePred) String() string { return "le" }
