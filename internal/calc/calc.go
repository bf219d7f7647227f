// Package calc implements the Calculation Graph Model of paper §2.1:
// a data-flow DAG whose source nodes are persistent tables (or the
// outcome of other calc graphs), whose inner nodes are logical
// operators, and whose results may have "multiple consumers to
// optimize for shared common subexpressions". Besides the intrinsic
// relational operators (projection, filter, join, aggregation, union,
// sort, star join), the model offers:
//
//   - Script nodes — Go closures standing in for the L-language /
//     custom C++ / R nodes of the paper (imperative logic on a
//     materialized data flow);
//   - Split and Combine — "to dynamically define and re-distribute
//     partitions of data flows as a base construct to enable
//     application-defined data parallelization" (§2.1), executed on
//     parallel goroutines.
//
// A graph is validated and optimized once (rule-based filter pushdown
// and fusion, §2.2); Execute lowers it to one tree of engine batch
// operators with memoized shared subexpressions and drains it.
package calc

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/types"
)

// Kind enumerates calc node types.
type Kind uint8

const (
	// KindTable is a persistent-table source node.
	KindTable Kind = iota
	// KindValues is a constant row set source.
	KindValues
	// KindFilter applies a predicate.
	KindFilter
	// KindProject selects columns.
	KindProject
	// KindJoin is a hash equi-join.
	KindJoin
	// KindAggregate groups and aggregates.
	KindAggregate
	// KindUnion concatenates inputs.
	KindUnion
	// KindSort orders rows.
	KindSort
	// KindLimit truncates the stream.
	KindLimit
	// KindScript runs an imperative closure on the materialized input.
	KindScript
	// KindStarJoin joins a fact input against dimension inputs.
	KindStarJoin
	// KindSplit partitions its input into n streams.
	KindSplit
	// KindCombine merges partitioned streams, executing its inputs in
	// parallel.
	KindCombine
)

func (k Kind) String() string {
	names := [...]string{"table", "values", "filter", "project", "join",
		"aggregate", "union", "sort", "limit", "script", "starjoin", "split", "combine"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ScriptFunc is the imperative stand-in for L/R/custom nodes: it maps
// a materialized input to a materialized output.
type ScriptFunc func(rows [][]types.Value) ([][]types.Value, error)

// Node is one operator in a calc graph. Nodes are created through
// Graph builder methods and immutable afterwards (the optimizer
// rewrites links on Compile).
type Node struct {
	id     int
	kind   Kind
	inputs []*Node

	table       *core.Table
	tableCols   []int // projection pushed into the scan (nil = all)
	asOf        uint64
	rows        [][]types.Value
	pred        expr.Predicate
	cols        []int
	leftCol     int
	rightCol    int
	groupBy     []int
	aggs        []engine.Agg
	sortKeys    []engine.SortSpec
	limit       int
	script      ScriptFunc
	scriptLabel string
	dims        []starDim
	parts       int
	partCol     int
	partIdx     int
}

// starDim is one dimension arm; its input is the star-join node's
// inputs[1+i].
type starDim struct {
	keyCol  int
	factCol int
	payload []int
}

// Graph is a calc model: built single-threaded through the builder
// methods, then compiled exactly once — by the first Execute — after
// which its nodes are never written again, so any number of sessions
// may execute it concurrently.
type Graph struct {
	nodes  []*Node
	nextID int

	compileOnce  sync.Once
	compileErr   error
	optimizeOnce sync.Once
}

// NewGraph returns an empty calc graph.
func NewGraph() *Graph {
	return &Graph{}
}

func (g *Graph) add(n *Node) *Node {
	n.id = g.nextID
	g.nextID++
	g.nodes = append(g.nodes, n)
	return n
}

// Table adds a source node over a unified table.
func (g *Graph) Table(t *core.Table) *Node {
	return g.add(&Node{kind: KindTable, table: t})
}

// TableAsOf adds a time-travel source node reading at snapshot ts.
func (g *Graph) TableAsOf(t *core.Table, ts uint64) *Node {
	return g.add(&Node{kind: KindTable, table: t, asOf: ts})
}

// Values adds a constant row source.
func (g *Graph) Values(rows [][]types.Value) *Node {
	return g.add(&Node{kind: KindValues, rows: rows})
}

// Filter adds a predicate node.
func (g *Graph) Filter(in *Node, pred expr.Predicate) *Node {
	return g.add(&Node{kind: KindFilter, inputs: []*Node{in}, pred: pred})
}

// Project adds a column-selection node.
func (g *Graph) Project(in *Node, cols ...int) *Node {
	return g.add(&Node{kind: KindProject, inputs: []*Node{in}, cols: cols})
}

// Join adds a hash equi-join node (left ⨝ right on leftCol = rightCol).
func (g *Graph) Join(left, right *Node, leftCol, rightCol int) *Node {
	return g.add(&Node{kind: KindJoin, inputs: []*Node{left, right}, leftCol: leftCol, rightCol: rightCol})
}

// Aggregate adds a group-by/aggregation node.
func (g *Graph) Aggregate(in *Node, groupBy []int, aggs ...engine.Agg) *Node {
	return g.add(&Node{kind: KindAggregate, inputs: []*Node{in}, groupBy: groupBy, aggs: aggs})
}

// Union adds a concatenation node.
func (g *Graph) Union(ins ...*Node) *Node {
	return g.add(&Node{kind: KindUnion, inputs: ins})
}

// Sort adds an order-by node.
func (g *Graph) Sort(in *Node, keys ...engine.SortSpec) *Node {
	return g.add(&Node{kind: KindSort, inputs: []*Node{in}, sortKeys: keys})
}

// Limit adds a limit node.
func (g *Graph) Limit(in *Node, n int) *Node {
	return g.add(&Node{kind: KindLimit, inputs: []*Node{in}, limit: n})
}

// Script adds an imperative node (the paper's L/script node). label
// appears in Explain output.
func (g *Graph) Script(in *Node, label string, fn ScriptFunc) *Node {
	return g.add(&Node{kind: KindScript, inputs: []*Node{in}, script: fn, scriptLabel: label})
}

// StarDim describes one dimension arm for StarJoin.
type StarDim struct {
	In      *Node
	KeyCol  int
	FactCol int
	Payload []int
}

// StarJoin adds the OLAP star-join node (§2.2).
func (g *Graph) StarJoin(fact *Node, dims ...StarDim) *Node {
	n := &Node{kind: KindStarJoin, inputs: []*Node{fact}}
	for _, d := range dims {
		n.inputs = append(n.inputs, d.In)
		n.dims = append(n.dims, starDim{keyCol: d.KeyCol, factCol: d.FactCol, payload: d.Payload})
	}
	return g.add(n)
}

// Split partitions in into parts streams by hashing partCol (§2.1's
// "split" operator); the returned nodes are the partitions.
func (g *Graph) Split(in *Node, parts, partCol int) []*Node {
	out := make([]*Node, parts)
	for i := range out {
		out[i] = g.add(&Node{kind: KindSplit, inputs: []*Node{in}, parts: parts, partCol: partCol, partIdx: i})
	}
	return out
}

// Combine merges partition branches, executing them on parallel
// goroutines (§2.1's "combine").
func (g *Graph) Combine(ins ...*Node) *Node {
	return g.add(&Node{kind: KindCombine, inputs: ins})
}

// Validate checks structural well-formedness.
func (g *Graph) Validate() error {
	for _, n := range g.nodes {
		for _, in := range n.inputs {
			if in == nil {
				return fmt.Errorf("calc: node %d (%v) has nil input", n.id, n.kind)
			}
			if in.id >= n.id {
				return fmt.Errorf("calc: node %d (%v) consumes later node %d: not a DAG", n.id, n.kind, in.id)
			}
		}
		switch n.kind {
		case KindTable:
			if n.table == nil {
				return fmt.Errorf("calc: table node %d without table", n.id)
			}
		case KindFilter:
			if n.pred == nil {
				return fmt.Errorf("calc: filter node %d without predicate", n.id)
			}
		case KindProject:
			if len(n.cols) == 0 {
				return fmt.Errorf("calc: project node %d selects nothing", n.id)
			}
		case KindScript:
			if n.script == nil {
				return fmt.Errorf("calc: script node %d without function", n.id)
			}
		case KindUnion, KindCombine:
			if len(n.inputs) == 0 {
				return fmt.Errorf("calc: %v node %d without inputs", n.kind, n.id)
			}
		case KindSplit:
			if n.parts <= 0 {
				return fmt.Errorf("calc: split node %d with %d parts", n.id, n.parts)
			}
		}
	}
	return nil
}

// compile validates and optimizes the graph on first call; later
// calls return the first outcome without touching the nodes.
func (g *Graph) compile() error {
	g.compileOnce.Do(func() {
		if g.compileErr = g.Validate(); g.compileErr == nil {
			g.Optimize()
		}
	})
	return g.compileErr
}

// consumers counts how many nodes consume each node.
func (g *Graph) consumers() map[*Node]int {
	c := map[*Node]int{}
	for _, n := range g.nodes {
		for _, in := range n.inputs {
			c[in]++
		}
	}
	return c
}

// consumersFrom counts consumer edges over the nodes reachable from
// root only. The executor uses this instead of the whole-graph count:
// optimizer rewrites (filter pushdown) can leave disconnected
// pass-through nodes behind, and counting their dangling edges would
// block the exclusive-scan fusions (parallel aggregate, join, limit
// pushdown) for no reason.
func consumersFrom(root *Node) map[*Node]int {
	c := map[*Node]int{}
	seen := map[*Node]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, in := range n.inputs {
			c[in]++
			walk(in)
		}
	}
	walk(root)
	return c
}

// Optimize runs the rule-based rewrites of §2.2 in place:
// filter-filter fusion, filter pushdown into table scans, and
// projection pushdown (aggregates and projections over an exclusive
// table scan decode only the columns they need — late
// materialization). Shared nodes (multiple consumers) are never
// rewritten away, preserving common-subexpression reuse. The rewrites
// are not idempotent (a second pass would push the neutralized
// filter's Const(true) again), so only the first call on a graph does
// anything.
func (g *Graph) Optimize() { g.optimizeOnce.Do(g.optimize) }

func (g *Graph) optimize() {
	cons := g.consumers()
	for _, n := range g.nodes {
		if n.kind != KindFilter {
			continue
		}
		child := n.inputs[0]
		if cons[child] > 1 {
			continue
		}
		switch child.kind {
		case KindFilter:
			// filter(filter(x)) → filter(x) with fused predicate.
			n.pred = expr.And{child.pred, n.pred}
			n.inputs[0] = child.inputs[0]
		case KindTable:
			// filter(table) → table scan with pushed predicate. The
			// filter stays as a harmless pass-through (it may be the
			// root), but its consumers are rewired straight to the
			// scan so downstream rules (aggregate fusion) see it.
			if child.pred == nil {
				child.pred = n.pred
			} else {
				child.pred = expr.And{child.pred, n.pred}
			}
			n.pred = expr.Const(true)
			for _, m := range g.nodes {
				if m == n {
					continue
				}
				for i, in := range m.inputs {
					if in == n {
						m.inputs[i] = child
					}
				}
			}
		}
	}
	// Projection pushdown after filter pushdown (the scan's predicate
	// keeps original ordinals; only the output narrows).
	// Aggregate(table) pairs are left alone: the executor fuses them
	// into a single scan-aggregate operator that computes its own
	// projection.
	cons = g.consumers() // filter pushdown rewired edges
	for _, n := range g.nodes {
		if n.kind != KindProject {
			continue
		}
		child := n.inputs[0]
		if child.kind != KindTable || child.tableCols != nil || cons[child] > 1 {
			continue
		}
		child.tableCols = append([]int(nil), n.cols...)
		for i := range n.cols {
			n.cols[i] = i // pass-through after the pushed scan
		}
	}
}

// Explain renders the graph for diagnostics.
func (g *Graph) Explain(root *Node) string {
	var b strings.Builder
	seen := map[*Node]bool{}
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.describe())
		if seen[n] {
			b.WriteString(" (shared)\n")
			return
		}
		seen[n] = true
		b.WriteByte('\n')
		for _, in := range n.inputs {
			walk(in, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}

func (n *Node) describe() string {
	switch n.kind {
	case KindTable:
		s := fmt.Sprintf("#%d table(%s)", n.id, n.table.Name())
		if n.pred != nil {
			s += fmt.Sprintf(" pred=[%v]", n.pred)
		}
		if n.tableCols != nil {
			s += fmt.Sprintf(" cols=%v", n.tableCols)
		}
		return s
	case KindFilter:
		return fmt.Sprintf("#%d filter(%v)", n.id, n.pred)
	case KindProject:
		return fmt.Sprintf("#%d project%v", n.id, n.cols)
	case KindJoin:
		return fmt.Sprintf("#%d join(left.%d = right.%d)", n.id, n.leftCol, n.rightCol)
	case KindAggregate:
		aggs := make([]string, len(n.aggs))
		for i, a := range n.aggs {
			aggs[i] = fmt.Sprintf("%v(%d)", a.Func, a.Col)
		}
		return fmt.Sprintf("#%d aggregate(by=%v, %s)", n.id, n.groupBy, strings.Join(aggs, ", "))
	case KindSort:
		keys := make([]string, len(n.sortKeys))
		for i, k := range n.sortKeys {
			keys[i] = fmt.Sprintf("%d", k.Col)
			if k.Desc {
				keys[i] += " desc"
			}
		}
		return fmt.Sprintf("#%d sort(%s)", n.id, strings.Join(keys, ", "))
	case KindLimit:
		return fmt.Sprintf("#%d limit(%d)", n.id, n.limit)
	case KindScript:
		return fmt.Sprintf("#%d script(%s)", n.id, n.scriptLabel)
	case KindSplit:
		return fmt.Sprintf("#%d split[%d/%d]", n.id, n.partIdx, n.parts)
	default:
		return fmt.Sprintf("#%d %v", n.id, n.kind)
	}
}
