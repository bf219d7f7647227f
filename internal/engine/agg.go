package engine

import (
	"fmt"

	"repro/internal/types"
)

// AggFunc enumerates aggregate functions.
type AggFunc uint8

const (
	// AggCount counts rows (Col ignored).
	AggCount AggFunc = iota
	// AggSum sums a numeric column.
	AggSum
	// AggMin takes the minimum.
	AggMin
	// AggMax takes the maximum.
	AggMax
	// AggAvg averages a numeric column.
	AggAvg
)

func (f AggFunc) String() string {
	switch f {
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	default:
		return "count"
	}
}

// Agg is one aggregate specification.
type Agg struct {
	Func AggFunc
	Col  int
}

// String renders an Agg for plans.
func (a Agg) String() string { return fmt.Sprintf("%v(col%d)", a.Func, a.Col) }

// aggState accumulates one aggregate for one group.
type aggState struct {
	count int64
	sumI  int64
	sumF  float64
	isF   bool
	min   types.Value
	max   types.Value
}

func (s *aggState) add(f AggFunc, v types.Value) {
	if f == AggCount {
		s.count++
		return
	}
	if v.IsNull() {
		return
	}
	s.count++
	switch v.Kind {
	case types.KindFloat64:
		s.isF = true
		s.sumF += v.F
	default:
		s.sumI += v.I
	}
	// Order statistics are only maintained for the funcs that read
	// them; SUM/AVG/COUNT skip the per-row comparisons.
	switch f {
	case AggMin:
		if s.min.IsNull() || types.Less(v, s.min) {
			s.min = v
		}
	case AggMax:
		if s.max.IsNull() || types.Less(s.max, v) {
			s.max = v
		}
	}
}

// merge folds another accumulator into s (combining per-code-space
// partial aggregates).
func (s *aggState) merge(o *aggState) {
	s.count += o.count
	s.sumI += o.sumI
	s.sumF += o.sumF
	s.isF = s.isF || o.isF
	if !o.min.IsNull() && (s.min.IsNull() || types.Less(o.min, s.min)) {
		s.min = o.min
	}
	if !o.max.IsNull() && (s.max.IsNull() || types.Less(s.max, o.max)) {
		s.max = o.max
	}
}

func (s *aggState) result(f AggFunc) types.Value {
	switch f {
	case AggCount:
		return types.Int(s.count)
	case AggSum:
		if s.isF {
			return types.Float(s.sumF)
		}
		return types.Int(s.sumI)
	case AggMin:
		return s.min
	case AggMax:
		return s.max
	case AggAvg:
		if s.count == 0 {
			return types.Null
		}
		if s.isF {
			return types.Float(s.sumF / float64(s.count))
		}
		return types.Float(float64(s.sumI) / float64(s.count))
	}
	return types.Null
}

func rowsEqual(a, b []types.Value) bool {
	for i := range a {
		an, bn := a[i].IsNull(), b[i].IsNull()
		if an != bn {
			return false
		}
		if !an && !types.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
