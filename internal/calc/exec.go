package calc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/mvcc"
	"repro/internal/types"
)

// Env carries execution context: the transaction supplying snapshots
// and an optional context that cancels table scans at batch
// granularity.
type Env struct {
	Txn *mvcc.Txn
	Ctx context.Context
	// Stats, when non-nil, collects per-operator runtime actuals for
	// EXPLAIN ANALYZE.
	Stats *QueryStats
}

// Execute compiles the graph — validate + optimize, once per Graph —
// into one pulled batch-operator tree and drains it at the root: the
// only place batches become rows besides Values and Script nodes.
// Nodes with several consumers are drained once and replayed to each;
// Combine branches drain on parallel goroutines.
func Execute(g *Graph, root *Node, env Env) ([][]types.Value, error) {
	return execute(g, root, env, nil)
}

// opWrap, when non-nil, intercepts every operator the planner creates
// — the seam tests use to observe the tree's Open/Close discipline.
type opWrap func(*Node, engine.BatchIterator) engine.BatchIterator

func execute(g *Graph, root *Node, env Env, wrap opWrap) ([][]types.Value, error) {
	if err := g.compile(); err != nil {
		return nil, err
	}
	it, err := newPlanner(env, root, wrap).build(root)
	if err != nil {
		return nil, err
	}
	return engine.CollectBatches(it)
}

// planner lowers calc nodes onto engine operators. Building is
// single-threaded and touches no data; all execution happens when the
// finished tree is opened and pulled.
type planner struct {
	env    Env
	cons   map[*Node]int
	shared map[*Node]*memo
	wrap   opWrap
}

func newPlanner(env Env, root *Node, wrap opWrap) *planner {
	return &planner{env: env, cons: consumersFrom(root), shared: map[*Node]*memo{}, wrap: wrap}
}

// memo is a multi-consumer node's operator, drained at most once;
// concurrent consumers (Combine branches) wait on the same drain.
type memo struct {
	in   engine.BatchIterator
	once sync.Once
	rows [][]types.Value
	err  error
}

func (m *memo) load() ([][]types.Value, error) {
	m.once.Do(func() { m.rows, m.err = engine.CollectBatches(m.in) })
	return m.rows, m.err
}

// materialized is the tree's row-shaped operator: Open runs load —
// a script over its drained input, a shared node's memoized drain, a
// Combine's parallel branches — and the result replays as batches.
// It observes the statement context before loading: scans below it
// check per batch, pure row logic would otherwise never look.
type materialized struct {
	ctx  context.Context
	load func() ([][]types.Value, error)
	engine.BatchValues
}

// Open implements engine.BatchIterator.
func (m *materialized) Open() error {
	if m.Stats != nil {
		t0 := time.Now()
		defer func() { m.Stats.AddWall(time.Since(t0)) }()
	}
	if m.ctx != nil {
		if err := m.ctx.Err(); err != nil {
			return err
		}
	}
	rows, err := m.load()
	if err != nil {
		return err
	}
	m.Rows = rows
	return m.BatchValues.Open()
}

// st resolves the node's stats slot — nil when collection is off,
// which every engine.OpStats method tolerates.
func (p *planner) st(n *Node) *engine.OpStats {
	return p.env.Stats.Op(n)
}

// build returns the operator feeding one consumer of n. A node with a
// single consumer is its operator; a shared node is planned once and
// every consumer gets a replay of its memoized drain.
func (p *planner) build(n *Node) (engine.BatchIterator, error) {
	if p.cons[n] <= 1 {
		return p.operator(n)
	}
	m, ok := p.shared[n]
	if !ok {
		in, err := p.operator(n)
		if err != nil {
			return nil, err
		}
		m = &memo{in: in}
		p.shared[n] = m
	}
	return p.rows(nil, m.load), nil
}

func (p *planner) buildAll(nodes []*Node) ([]engine.BatchIterator, error) {
	out := make([]engine.BatchIterator, len(nodes))
	for i, n := range nodes {
		it, err := p.build(n)
		if err != nil {
			return nil, err
		}
		out[i] = it
	}
	return out, nil
}

// operator maps one node (inputs first) to its engine operator.
func (p *planner) operator(n *Node) (engine.BatchIterator, error) {
	it, err := p.lower(n)
	if err == nil && p.wrap != nil {
		it = p.wrap(n, it)
	}
	return it, err
}

func (p *planner) lower(n *Node) (engine.BatchIterator, error) {
	st := p.st(n)
	ctx := p.env.Ctx
	// Aggregate over an exclusively-owned, unfiltered table scan with
	// one group column fuses into one code-domain scan-aggregate with
	// no scan operator at all. The rule is a property of the query, so
	// it holds on every host; every other aggregate is a
	// BatchHashAggregate, which drains a table scan morsel-parallel.
	if n.kind == KindAggregate && len(n.groupBy) == 1 {
		if child := n.inputs[0]; child.kind == KindTable && child.tableCols == nil && child.pred == nil && p.cons[child] <= 1 {
			return &engine.TableAggregate{
				Table: child.table, Txn: p.env.Txn, AsOf: child.asOf,
				Group: n.groupBy[0], Aggs: n.aggs,
				Ctx: ctx, Stats: st, ScanStats: p.st(child),
			}, nil
		}
	}

	ins, err := p.buildAll(n.inputs)
	if err != nil {
		return nil, err
	}
	switch n.kind {
	case KindTable:
		// The streaming scan: code-level predicate pushdown, the view
		// pinned only while the tree is open, cancellation per batch.
		return &engine.BatchTableScan{Table: n.table, Txn: p.env.Txn, Pred: n.pred, Cols: n.tableCols, AsOf: n.asOf, Ctx: ctx, Stats: st}, nil
	case KindValues:
		return &engine.BatchValues{Rows: n.rows, Stats: st}, nil
	case KindFilter:
		pred := n.pred
		if c, ok := pred.(expr.Const); ok && bool(c) {
			pred = nil // neutralized by pushdown: pass batches through untouched
		}
		return &engine.BatchFilter{In: ins[0], Pred: pred, Stats: st}, nil
	case KindProject:
		return &engine.BatchProject{In: ins[0], Cols: n.cols, Stats: st}, nil
	case KindJoin:
		return &engine.BatchHashJoin{
			Left: ins[0], Right: ins[1], LeftCol: n.leftCol, RightCol: n.rightCol,
			Budget: budget.FromContext(ctx), Stats: st,
		}, nil
	case KindAggregate:
		return &engine.BatchHashAggregate{
			In: ins[0], GroupBy: n.groupBy, Aggs: n.aggs,
			Budget: budget.FromContext(ctx), Stats: st,
		}, nil
	case KindUnion:
		return &engine.BatchUnion{Ins: ins, Stats: st}, nil
	case KindSort:
		return &engine.BatchSort{In: ins[0], Keys: n.sortKeys, Stats: st}, nil
	case KindLimit:
		// Over a streaming input the limit stops pulling once satisfied
		// — the scan below never decodes the rest of the table.
		return &engine.BatchLimit{In: ins[0], N: n.limit, Stats: st}, nil
	case KindStarJoin:
		// inputs are the fact followed by the dimensions, in dims order.
		dims := make([]engine.StarDim, len(n.dims))
		for i, d := range n.dims {
			dims[i] = engine.StarDim{In: ins[1+i], KeyCol: d.keyCol, FactCol: d.factCol, Payload: d.payload}
		}
		return &engine.BatchStarJoin{Fact: ins[0], Dims: dims, Stats: st}, nil
	case KindSplit:
		return &engine.BatchFilter{In: ins[0], Pred: &splitPred{parts: n.parts, col: n.partCol, idx: n.partIdx}, Stats: st}, nil
	case KindScript:
		// Imperative logic sees its whole input at once (§2.1).
		return p.rows(st, func() ([][]types.Value, error) {
			rows, err := engine.CollectBatches(ins[0])
			if err != nil {
				return nil, err
			}
			return n.script(rows)
		}), nil
	case KindCombine:
		// Application-defined data parallelism: branches drain
		// concurrently (§2.1), results concatenate in branch order.
		return p.rows(st, func() ([][]types.Value, error) {
			results := make([][][]types.Value, len(ins))
			errs := make([]error, len(ins))
			var wg sync.WaitGroup
			for i, in := range ins {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i], errs[i] = engine.CollectBatches(in)
				}()
			}
			wg.Wait()
			var out [][]types.Value
			for i := range results {
				if errs[i] != nil {
					return nil, errs[i]
				}
				out = append(out, results[i]...)
			}
			return out, nil
		}), nil
	default:
		return nil, fmt.Errorf("calc: cannot execute node kind %v", n.kind)
	}
}

// rows plants a loader in the tree as the node's materialized operator.
func (p *planner) rows(st *engine.OpStats, load func() ([][]types.Value, error)) engine.BatchIterator {
	return &materialized{ctx: p.env.Ctx, load: load, BatchValues: engine.BatchValues{Stats: st}}
}

// splitPred keeps one partition of a Split: rows whose partCol hashes
// to idx modulo parts, or — with partCol out of range — every parts-th
// row in arrival order (round-robin). Stateful, so one instance serves
// one operator.
type splitPred struct {
	parts, col, idx int
	seen            int
}

// Eval implements expr.Predicate.
func (s *splitPred) Eval(row []types.Value) bool {
	i := s.seen
	s.seen++
	if s.col >= 0 && s.col < len(row) {
		return int(types.Hash(row[s.col])%uint64(s.parts)) == s.idx
	}
	return i%s.parts == s.idx
}

func (s *splitPred) String() string { return fmt.Sprintf("split[%d/%d]", s.idx, s.parts) }
