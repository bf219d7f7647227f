package calc

import (
	"strings"
	"sync"

	"repro/internal/engine"
)

// QueryStats is a per-statement collection of operator actuals keyed
// by calc node — the runtime mirror of the plan tree that EXPLAIN
// ANALYZE renders. A nil *QueryStats disables collection: Op returns
// nil and every engine.OpStats method is nil-safe, so the executor
// threads it unconditionally without branching on the hot path.
//
// Slots are created while the tree is planned; the mutex keeps Op safe
// from any goroutine all the same. Each node's *OpStats is then
// updated lock-free via its atomics by whichever goroutine drives the
// operator (Combine branches drain concurrently).
type QueryStats struct {
	mu  sync.Mutex
	ops map[*Node]*engine.OpStats
}

// NewQueryStats returns an empty collection ready to attach to an Env.
func NewQueryStats() *QueryStats {
	return &QueryStats{ops: map[*Node]*engine.OpStats{}}
}

// Op returns the node's stats slot, creating it on first use. Nil
// receiver (collection disabled) returns nil.
func (q *QueryStats) Op(n *Node) *engine.OpStats {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	s, ok := q.ops[n]
	if !ok {
		s = &engine.OpStats{}
		q.ops[n] = s
	}
	return s
}

// lookup returns the node's stats without creating a slot — the
// renderer's view: a node never executed has no entry.
func (q *QueryStats) lookup(n *Node) *engine.OpStats {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ops[n]
}

// StatLine pairs one plan line with its runtime actuals: the
// structured form behind ExplainAnalyze, used by tests to assert the
// stats tree is congruent with the plan shape.
type StatLine struct {
	Depth  int
	Node   *Node
	Label  string           // Node.describe() text
	Stats  *engine.OpStats  // nil or untouched = not executed
	Shared bool             // repeated occurrence of a shared subtree
}

// StatsLines walks the plan exactly like Explain and zips each line
// with the node's collected actuals.
func (g *Graph) StatsLines(root *Node, qs *QueryStats) []StatLine {
	var out []StatLine
	seen := map[*Node]bool{}
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		l := StatLine{Depth: depth, Node: n, Label: n.describe(), Stats: qs.lookup(n)}
		if seen[n] {
			l.Shared = true
			out = append(out, l)
			return
		}
		seen[n] = true
		out = append(out, l)
		for _, in := range n.inputs {
			walk(in, depth+1)
		}
	}
	walk(root, 0)
	return out
}

// ExplainAnalyze renders the plan with per-operator actuals appended:
// the same tree Explain prints, each executed line annotated with
// "(actual: rows=… wall=…)". Lines never reached (short-circuited
// branches, pruned limit inputs) read "(not executed)".
func (g *Graph) ExplainAnalyze(root *Node, qs *QueryStats) string {
	var b strings.Builder
	for _, l := range g.StatsLines(root, qs) {
		b.WriteString(strings.Repeat("  ", l.Depth))
		b.WriteString(l.Label)
		if l.Shared {
			b.WriteString(" (shared)")
		}
		switch {
		case l.Stats.Touched():
			b.WriteString(" (actual: ")
			b.WriteString(l.Stats.Actuals())
			b.WriteString(")")
		default:
			b.WriteString(" (not executed)")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
