package obs

import (
	"fmt"
	"sync"
	"time"
)

// EventKind names a unified-table lifecycle transition.
type EventKind uint8

const (
	// EvL1Merge is one incremental L1→L2 merge step (§3.1, Fig. 6).
	EvL1Merge EventKind = iota
	// EvRotateL2 closes the open L2-delta generation.
	EvRotateL2
	// EvMergeStart begins an L2→main merge attempt.
	EvMergeStart
	// EvMergeDone completes an L2→main merge.
	EvMergeDone
	// EvMergeFail records a failed L2→main merge attempt.
	EvMergeFail
	// EvMergeRetry marks a merge attempt made while the table is in a
	// failed state (the backoff machinery's retry traffic).
	EvMergeRetry
	// EvBreakerOpen records the merge circuit opening after consecutive
	// failures.
	EvBreakerOpen
	// EvBreakerClose records a successful merge closing the circuit.
	EvBreakerClose
	// EvSavepoint is a completed savepoint (§3.2).
	EvSavepoint
	// EvThrottle is a write delayed by delta-backlog admission control.
	EvThrottle
	// EvReject is a write refused with ErrOverloaded.
	EvReject
	// EvWALRotate is a redo-log segment rotation.
	EvWALRotate
	// EvStmtStart opens a statement span (always on, one event per
	// statement; Stmt carries the statement id, Detail the SQL text).
	EvStmtStart
	// EvStmtPlan records the compiled plan shape for a statement whose
	// per-operator collection was armed (slow-query or ANALYZE).
	EvStmtPlan
	// EvStmtOp is one operator's actuals inside a collected statement.
	EvStmtOp
	// EvStmtMorsel summarizes a collected statement's morsel-parallel
	// shape (workers/morsels per scan).
	EvStmtMorsel
	// EvStmtEnd closes a statement span; Detail carries the outcome
	// (ok, timeout, killed, budget, error), Dur the elapsed time.
	EvStmtEnd
)

func (k EventKind) String() string {
	switch k {
	case EvL1Merge:
		return "l1-merge"
	case EvRotateL2:
		return "rotate-l2"
	case EvMergeStart:
		return "merge-start"
	case EvMergeDone:
		return "merge-done"
	case EvMergeFail:
		return "merge-fail"
	case EvMergeRetry:
		return "merge-retry"
	case EvBreakerOpen:
		return "breaker-open"
	case EvBreakerClose:
		return "breaker-close"
	case EvSavepoint:
		return "savepoint"
	case EvThrottle:
		return "throttle"
	case EvReject:
		return "reject"
	case EvWALRotate:
		return "wal-rotate"
	case EvStmtStart:
		return "stmt-start"
	case EvStmtPlan:
		return "stmt-plan"
	case EvStmtOp:
		return "stmt-op"
	case EvStmtMorsel:
		return "stmt-morsel"
	case EvStmtEnd:
		return "stmt-end"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one recorded lifecycle transition.
type Event struct {
	// Seq orders events totally across all tables (1-based, dense).
	Seq uint64
	// Time is the wall-clock instant the event was recorded.
	Time time.Time
	// Kind is the transition type.
	Kind EventKind
	// Table names the table, empty for database-scoped events
	// (savepoint, WAL rotation).
	Table string
	// Stmt is the statement id for statement-span events
	// ("<session>.<seq>"), empty otherwise.
	Stmt string
	// Rows is the row count the transition touched (moved, frozen,
	// backlogged), when meaningful.
	Rows int
	// Dur is the transition's duration, when measured.
	Dur time.Duration
	// Detail carries free-form context (error messages, phases).
	Detail string
}

// String renders an event as one wire/log line.
func (e Event) String() string {
	s := fmt.Sprintf("%d %s %s", e.Seq, e.Time.Format("15:04:05.000000"), e.Kind)
	if e.Stmt != "" {
		s += " stmt=" + e.Stmt
	}
	if e.Table != "" {
		s += " table=" + e.Table
	}
	if e.Rows != 0 {
		s += fmt.Sprintf(" rows=%d", e.Rows)
	}
	if e.Dur != 0 {
		s += fmt.Sprintf(" dur=%s", e.Dur)
	}
	if e.Detail != "" {
		s += fmt.Sprintf(" detail=%q", e.Detail)
	}
	return s
}

// Tracer is a fixed-capacity ring buffer of lifecycle events. Writers
// overwrite the oldest entries; readers get a consistent, oldest-first
// copy. A short mutex section per event keeps it simple and safe — the
// event rate (merges, rotations, admission-control actions) is orders
// of magnitude below the row rate.
type Tracer struct {
	mu   sync.Mutex
	buf  []Event
	seq  uint64
	next int // buf index the next event lands in
	full bool
}

func newTracer(capacity int) *Tracer {
	return &Tracer{buf: make([]Event, capacity)}
}

// add records e, stamping sequence and time.
func (t *Tracer) add(e Event) {
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	t.buf[t.next] = e
	if t.next++; t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// last returns up to n most recent events, oldest first (n <= 0 means
// all retained).
func (t *Tracer) last(n int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Event
	if t.full {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf[:t.next]...)
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Trace records a lifecycle event. No-op on a disabled registry.
func (r *Registry) Trace(e Event) {
	if !r.Enabled() {
		return
	}
	r.tracer.add(e)
}

// Events returns up to n most recent lifecycle events, oldest first
// (n <= 0 returns everything the ring retains).
func (r *Registry) Events(n int) []Event {
	if !r.Enabled() {
		return nil
	}
	return r.tracer.last(n)
}
