package engine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// OpStats are one operator's runtime actuals for EXPLAIN ANALYZE: row
// and batch counts, wall time, the parallel shape, pushdown and
// decode-cache effectiveness, and bytes charged to the statement's
// memory budget. A nil *OpStats is the disabled state — every method
// is nil-safe and costs one branch, so operators carry a Stats field
// unconditionally and the hot path stays clean when collection is off.
//
// Fields are atomics because fused parallel operators update them from
// morsel workers; single-threaded operators pay an uncontended atomic
// per batch, which is noise next to batch processing cost.
type OpStats struct {
	rowsOut, batchesOut atomic.Int64
	wallNanos           atomic.Int64
	workers, morsels    atomic.Int64
	decodeHits          atomic.Int64
	decodeMisses        atomic.Int64
	pushdownDropped     atomic.Int64
	budgetBytes         atomic.Int64
}

// AddOut records one emitted batch of n rows.
func (s *OpStats) AddOut(n int) {
	if s == nil {
		return
	}
	s.rowsOut.Add(int64(n))
	s.batchesOut.Add(1)
}

// AddWall accumulates wall time spent inside the operator.
func (s *OpStats) AddWall(d time.Duration) {
	if s == nil {
		return
	}
	s.wallNanos.Add(int64(d))
}

// AddBudget records bytes reserved against the statement's memory
// budget on behalf of this operator.
func (s *OpStats) AddBudget(n int64) {
	if s == nil {
		return
	}
	s.budgetBytes.Add(n)
}

// SetScan overwrites the scan-shaped fields from a cursor's totals —
// the authoritative source for scan nodes, including fused paths that
// bypass the scan operator entirely.
func (s *OpStats) SetScan(ss core.ScanStats) {
	if s == nil {
		return
	}
	s.rowsOut.Store(int64(ss.Rows))
	s.batchesOut.Store(int64(ss.Batches))
	s.pushdownDropped.Store(int64(ss.ResidualDropped))
	s.decodeHits.Store(int64(ss.DecodeHits))
	s.decodeMisses.Store(int64(ss.DecodeMisses))
	s.workers.Store(int64(ss.Workers))
	s.morsels.Store(int64(ss.Morsels))
	if ss.CacheBytes > 0 {
		s.budgetBytes.Store(ss.CacheBytes)
	}
}

// RowsOut returns the emitted row count.
func (s *OpStats) RowsOut() int64 {
	if s == nil {
		return 0
	}
	return s.rowsOut.Load()
}

// Wall returns the recorded wall time.
func (s *OpStats) Wall() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.wallNanos.Load())
}

// Workers and Morsels return the parallel shape (0 = sequential or
// not a scan).
func (s *OpStats) Workers() int64 {
	if s == nil {
		return 0
	}
	return s.workers.Load()
}

func (s *OpStats) Morsels() int64 {
	if s == nil {
		return 0
	}
	return s.morsels.Load()
}

// Touched reports whether any execution reached this operator — a
// zero-row scan still counts (its batch/wall fields may be zero, but
// SetScan stamps workers).
func (s *OpStats) Touched() bool {
	if s == nil {
		return false
	}
	return s.rowsOut.Load() != 0 || s.batchesOut.Load() != 0 ||
		s.wallNanos.Load() != 0 || s.workers.Load() != 0
}

// Actuals renders the EXPLAIN ANALYZE annotation: always rows and
// wall, the rest only when informative.
func (s *OpStats) Actuals() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "rows=%d", s.rowsOut.Load())
	if n := s.batchesOut.Load(); n > 0 {
		fmt.Fprintf(&b, " batches=%d", n)
	}
	fmt.Fprintf(&b, " wall=%s", time.Duration(s.wallNanos.Load()).Round(time.Microsecond))
	if w := s.workers.Load(); w > 1 {
		fmt.Fprintf(&b, " workers=%d", w)
	}
	if m := s.morsels.Load(); m > 0 {
		fmt.Fprintf(&b, " morsels=%d", m)
	}
	if n := s.pushdownDropped.Load(); n > 0 {
		fmt.Fprintf(&b, " residual-dropped=%d", n)
	}
	if h, m := s.decodeHits.Load(), s.decodeMisses.Load(); h+m > 0 {
		fmt.Fprintf(&b, " decode=%d/%d", h, m)
	}
	if n := s.budgetBytes.Load(); n > 0 {
		fmt.Fprintf(&b, " mem=%dB", n)
	}
	return b.String()
}
