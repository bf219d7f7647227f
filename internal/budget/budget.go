// Package budget provides per-statement execution budgets: a byte
// meter that memory-hungry operators (hash join/aggregate builds,
// decode caches) reserve against before allocating, failing the one
// query with a typed error instead of OOMing the whole process.
//
// The meter is reserve-only. A statement's allocations live exactly
// as long as the statement (operator Close releases them to the Go
// heap all at once), so tracking releases would buy nothing: the
// meter is created when the statement starts, charged as operators
// grow state, and discarded when the statement ends. That keeps the
// hot path to one atomic add per reservation and makes the accounting
// trivially race-free across morsel workers.
package budget

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/types"
)

// ErrBudgetExceeded is the typed failure for a statement that tried
// to grow past its memory budget. Wrapped errors carry the limit and
// high-water mark; match with errors.Is.
var ErrBudgetExceeded = errors.New("statement memory budget exceeded")

// Meter is one statement's byte budget. A nil *Meter is valid and
// means "unlimited": every method is nil-safe so operators can charge
// unconditionally without sprinkling nil checks at call sites.
type Meter struct {
	limit int64
	used  atomic.Int64
}

// NewMeter returns a meter enforcing limit bytes. limit <= 0 returns
// nil (unlimited), so config plumbing can pass zero through.
func NewMeter(limit int64) *Meter {
	if limit <= 0 {
		return nil
	}
	return &Meter{limit: limit}
}

// Reserve charges n bytes against the budget. It returns an error
// wrapping ErrBudgetExceeded once cumulative reservations pass the
// limit. The overshooting reservation is still recorded — the
// statement is already failing, and keeping the counter monotonic
// means Used reports the true high-water attempt.
func (m *Meter) Reserve(n int64) error {
	if m == nil || n <= 0 {
		return nil
	}
	if used := m.used.Add(n); used > m.limit {
		return fmt.Errorf("%w: needed %d bytes, limit %d", ErrBudgetExceeded, used, m.limit)
	}
	return nil
}

// valueOverhead approximates the boxed-value bookkeeping around the
// payload: the interface-shaped types.Value plus slice/map slack.
const valueOverhead = 32

// ValueBytes estimates the resident size of one value.
func ValueBytes(v types.Value) int64 {
	if v.Kind == types.KindString {
		return valueOverhead + int64(len(v.S))
	}
	return valueOverhead
}

// RowBytes estimates the resident size of one materialized row.
func RowBytes(row []types.Value) int64 {
	n := int64(valueOverhead) // slice header + cap slack
	for _, v := range row {
		n += ValueBytes(v)
	}
	return n
}
