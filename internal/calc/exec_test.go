package calc

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/leakcheck"
	"repro/internal/types"
)

// TestExecuteCompilesOnce: executing the same graph repeatedly must
// not re-run the (non-idempotent) optimizer.
func TestExecuteCompilesOnce(t *testing.T) {
	_, tab := salesTable(t)
	g := NewGraph()
	f := g.Filter(g.Table(tab), expr.Cmp{Col: 0, Op: expr.OpLe, Val: types.Int(10)})
	var first string
	for i := 0; i < 5; i++ {
		rows, err := Execute(g, f, Env{})
		if err != nil || len(rows) != 10 {
			t.Fatalf("run %d: rows=%d err=%v", i, len(rows), err)
		}
		if i == 0 {
			first = g.Explain(f)
		} else if got := g.Explain(f); got != first {
			t.Fatalf("run %d changed the plan:\n%s\nwas:\n%s", i, got, first)
		}
	}
}

// opTrace counts, per calc node, how often the node's operator was
// successfully opened and how often an opened operator was closed.
type opTrace struct {
	mu            sync.Mutex
	opens, closes map[*Node]int
}

type tracedOp struct {
	engine.BatchIterator
	n    *Node
	tr   *opTrace
	open bool
}

func (o *tracedOp) Open() error {
	err := o.BatchIterator.Open()
	if err == nil {
		o.open = true
		o.tr.mu.Lock()
		o.tr.opens[o.n]++
		o.tr.mu.Unlock()
	}
	return err
}

func (o *tracedOp) Close() error {
	if o.open {
		o.open = false
		o.tr.mu.Lock()
		o.tr.closes[o.n]++
		o.tr.mu.Unlock()
	}
	return o.BatchIterator.Close()
}

// executeTraced is Execute with every planned operator wrapped in a
// tracedOp.
func executeTraced(g *Graph, root *Node, env Env) ([][]types.Value, *opTrace, error) {
	tr := &opTrace{opens: map[*Node]int{}, closes: map[*Node]int{}}
	rows, err := execute(g, root, env, func(n *Node, it engine.BatchIterator) engine.BatchIterator {
		return &tracedOp{BatchIterator: it, n: n, tr: tr}
	})
	return rows, tr, err
}

func (tr *opTrace) assertBalanced(t *testing.T) {
	t.Helper()
	for n, opens := range tr.opens {
		if closes := tr.closes[n]; closes != opens {
			t.Errorf("%s: opened %d times, closed %d", n.describe(), opens, closes)
		}
	}
}

// TestSharedNodeOpensOnce: a node with two consumers is planned once,
// its operator opened (and drained) exactly once, and both consumers
// see all of its rows.
func TestSharedNodeOpensOnce(t *testing.T) {
	_, tab := salesTable(t)
	g := NewGraph()
	src := g.Table(tab)
	a := g.Aggregate(src, nil, engine.Agg{Func: engine.AggCount})
	b := g.Aggregate(src, nil, engine.Agg{Func: engine.AggSum, Col: 2})
	u := g.Union(a, b)
	rows, tr, err := executeTraced(g, u, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].I != 100 || rows[1][0].I != 5050 {
		t.Fatalf("rows = %v", rows)
	}
	if tr.opens[src] != 1 {
		t.Errorf("shared scan opened %d times, want 1", tr.opens[src])
	}
	for _, n := range []*Node{a, b, u} {
		if tr.opens[n] != 1 {
			t.Errorf("%s opened %d times, want 1", n.describe(), tr.opens[n])
		}
	}
	tr.assertBalanced(t)
}

// cancelOnEval is a predicate that cancels a context the first time a
// row reaches it, then accepts everything.
type cancelOnEval struct{ cancel context.CancelFunc }

func (c cancelOnEval) Eval([]types.Value) bool { c.cancel(); return true }
func (c cancelOnEval) String() string          { return "cancel-on-eval" }

// TestCombineBranchFailureClosesEverything: when one Combine branch
// fails — a script error, or the statement context cancelled while a
// scan is mid-stream — the error surfaces, every operator that was
// opened anywhere in the tree has been closed, and no branch goroutine
// outlives the call.
func TestCombineBranchFailureClosesEverything(t *testing.T) {
	_, tab := salesTableBatched(t, 10) // 100 rows = 10 batches per scan
	boom := errors.New("branch boom")
	snap := leakcheck.Snapshot()

	t.Run("script error", func(t *testing.T) {
		g := NewGraph()
		failing := g.Script(g.Table(tab), "fail", func([][]types.Value) ([][]types.Value, error) { return nil, boom })
		healthy := g.Sort(g.Table(tab), engine.SortSpec{Col: 0})
		_, tr, err := executeTraced(g, g.Combine(failing, healthy), Env{})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want %v", err, boom)
		}
		if len(tr.opens) == 0 {
			t.Fatal("nothing was opened")
		}
		tr.assertBalanced(t)
	})

	t.Run("cancelled ctx", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		g := NewGraph()
		// The predicate is pushed into the scan, which evaluates it on
		// its first batch; the scan's next pull observes the cancel.
		scan := g.Table(tab)
		cancelled := g.Sort(g.Filter(scan, cancelOnEval{cancel}), engine.SortSpec{Col: 0})
		other := g.Sort(g.Table(tab), engine.SortSpec{Col: 0})
		_, tr, err := executeTraced(g, g.Combine(cancelled, other), Env{Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if tr.opens[scan] != 1 {
			t.Errorf("cancelled scan opened %d times, want 1", tr.opens[scan])
		}
		tr.assertBalanced(t)
	})

	snap.Assert(t)
}

// TestStatsEveryExecutedNodeReports: with every node a real operator,
// each reachable node of a Join→Aggregate→Sort→Limit plan reports the
// rows that flowed through it, and none renders "(not executed)".
func TestStatsEveryExecutedNodeReports(t *testing.T) {
	_, tab := salesTable(t)
	g := NewGraph()
	orders := g.Table(tab)
	labels := g.Values([][]types.Value{
		{types.Str("EMEA"), types.Str("Europe")},
		{types.Str("APJ"), types.Str("Asia")},
	})
	join := g.Join(orders, labels, 1, 0)
	agg := g.Aggregate(join, []int{4}, engine.Agg{Func: engine.AggCount}, engine.Agg{Func: engine.AggSum, Col: 2})
	sorted := g.Sort(agg, engine.SortSpec{Col: 2, Desc: true})
	limit := g.Limit(sorted, 1)

	qs := NewQueryStats()
	rows, err := Execute(g, limit, Env{Stats: qs})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	want := map[*Node]int64{orders: 100, labels: 2, join: 80, agg: 2, sorted: 2, limit: 1}
	lines := g.StatsLines(limit, qs)
	if len(lines) != len(want) {
		t.Fatalf("%d stat lines for %d nodes", len(lines), len(want))
	}
	for _, l := range lines {
		if !l.Stats.Touched() {
			t.Errorf("%s: not executed", l.Label)
		}
		if got := l.Stats.RowsOut(); got != want[l.Node] {
			t.Errorf("%s: rows=%d, want %d", l.Label, got, want[l.Node])
		}
	}
	if plan := g.ExplainAnalyze(limit, qs); strings.Contains(plan, "(not executed)") {
		t.Errorf("plan has unexecuted nodes:\n%s", plan)
	}

	// The remaining node kinds, in one graph: script, split, combine,
	// union, star join, and a shared scan.
	g2 := NewGraph()
	shared := g2.Table(tab)
	parts := g2.Split(shared, 2, 0)
	comb := g2.Combine(parts...)
	script := g2.Script(g2.Project(g2.Table(tab), 0, 1, 2), "identity", func(r [][]types.Value) ([][]types.Value, error) { return r, nil })
	star := g2.StarJoin(g2.Union(comb, script), StarDim{In: g2.Values([][]types.Value{
		{types.Str("AMER"), types.Str("Americas")},
	}), KeyCol: 0, FactCol: 1, Payload: []int{1}})
	qs = NewQueryStats()
	rows, err = Execute(g2, star, Env{Stats: qs})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 40 { // 20 AMER rows, once per union arm
		t.Fatalf("star rows = %d, want 40", len(rows))
	}
	plan := g2.ExplainAnalyze(star, qs)
	if strings.Contains(plan, "(not executed)") {
		t.Errorf("plan has unexecuted nodes:\n%s", plan)
	}
	if got := qs.lookup(comb).RowsOut(); got != 100 {
		t.Errorf("combine rows = %d, want 100:\n%s", got, plan)
	}
	if got := qs.lookup(shared).RowsOut(); got != 100 {
		t.Errorf("shared scan rows = %d, want 100 (drained once):\n%s", got, plan)
	}
}
