package engine

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/types"
	"repro/internal/vec"
)

// BatchValues replays materialized rows as batches of BatchSize rows
// (vec.DefaultBatchSize when unset) — the one place rows enter a batch
// tree: constant row sets, script results, memoized shared
// intermediates, and the output side of the blocking operators below.
// Column kinds are adopted from the first appended values.
type BatchValues struct {
	Rows      [][]types.Value
	BatchSize int
	// Stats, when non-nil, collects the source's actuals.
	Stats *OpStats

	pos  int
	out  *vec.Batch
	open bool
}

// Open implements BatchIterator.
func (v *BatchValues) Open() error {
	v.pos, v.open = 0, true
	return nil
}

// Next implements BatchIterator.
func (v *BatchValues) Next() (*vec.Batch, error) {
	if !v.open {
		return nil, ErrNotOpen
	}
	if v.pos >= len(v.Rows) {
		return nil, nil
	}
	if v.Stats != nil {
		t0 := time.Now()
		defer func() { v.Stats.AddWall(time.Since(t0)) }()
	}
	size := v.BatchSize
	if size <= 0 {
		size = vec.DefaultBatchSize
	}
	if v.out == nil {
		v.out = vec.New(make([]types.Kind, len(v.Rows[v.pos])))
	}
	v.out.Reset()
	end := min(v.pos+size, len(v.Rows))
	for _, row := range v.Rows[v.pos:end] {
		v.out.AppendRow(row)
	}
	v.pos = end
	v.Stats.AddOut(v.out.Len())
	return v.out, nil
}

// Close implements BatchIterator. Idempotent.
func (v *BatchValues) Close() error {
	v.open = false
	return nil
}

// SortSpec orders by a column.
type SortSpec struct {
	Col  int
	Desc bool
}

// BatchSort is the blocking order-by: Open drains the input, sorts it
// stably on Keys (NULLs first ascending, per types.Compare), and the
// sorted rows are replayed as batches.
type BatchSort struct {
	In   BatchIterator
	Keys []SortSpec
	// Stats, when non-nil, collects the sort's actuals.
	Stats *OpStats

	out BatchValues
}

// Open implements BatchIterator.
func (s *BatchSort) Open() error {
	if s.Stats != nil {
		t0 := time.Now()
		defer func() { s.Stats.AddWall(time.Since(t0)) }()
	}
	rows, err := CollectBatches(s.In)
	if err != nil {
		return err
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for _, k := range s.Keys {
			c := types.Compare(rows[a][k.Col], rows[b][k.Col])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	s.out = BatchValues{Rows: rows, Stats: s.Stats}
	return s.out.Open()
}

// Next implements BatchIterator.
func (s *BatchSort) Next() (*vec.Batch, error) { return s.out.Next() }

// Close implements BatchIterator: the input was closed when the drain
// in Open finished. Idempotent.
func (s *BatchSort) Close() error { return s.out.Close() }

// BatchUnion concatenates its inputs in order (schema-compatible by
// contract). Each input is opened only when the stream reaches it and
// closed as soon as it is exhausted, so at most one child holds
// resources at a time and a failing child leaves nothing open behind
// it.
type BatchUnion struct {
	Ins []BatchIterator
	// Stats, when non-nil, collects the union's actuals.
	Stats *OpStats

	cur  int
	open bool // Ins[cur] is open
}

// Open implements BatchIterator.
func (u *BatchUnion) Open() error {
	u.cur = 0
	return u.openCur()
}

func (u *BatchUnion) openCur() error {
	if u.cur >= len(u.Ins) {
		return nil
	}
	if err := u.Ins[u.cur].Open(); err != nil {
		return err
	}
	u.open = true
	return nil
}

// Next implements BatchIterator.
func (u *BatchUnion) Next() (*vec.Batch, error) {
	if u.Stats != nil {
		t0 := time.Now()
		defer func() { u.Stats.AddWall(time.Since(t0)) }()
	}
	for u.open {
		b, err := u.Ins[u.cur].Next()
		if err != nil {
			return nil, err
		}
		if b != nil {
			u.Stats.AddOut(b.Rows())
			return b, nil
		}
		if err := u.Close(); err != nil {
			return nil, err
		}
		u.cur++
		if err := u.openCur(); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// Close implements BatchIterator: closes the input the stream stopped
// in, if any. Idempotent.
func (u *BatchUnion) Close() error {
	if !u.open {
		return nil
	}
	u.open = false
	return u.Ins[u.cur].Close()
}

// StarDim describes one arm of a star join: a (pre-filtered)
// dimension input, the dimension's key column, the fact input's
// foreign-key column, and the dimension columns carried into the
// output.
type StarDim struct {
	In      BatchIterator
	KeyCol  int
	FactCol int
	Payload []int
}

// BatchStarJoin is the OLAP operator of §2.2: "OLAP operators are
// optimized for star-join scenarios with fact and dimension tables".
// Every dimension is hashed once in Open (dimension tables are small,
// and their keys must be unique); the fact stream is probed against
// all of them in one pass — a fact row survives only if it matches
// every dimension (semijoin reduction; NULL foreign keys never match).
// Output rows are the fact columns followed by each dimension's
// payload columns, ready for BatchHashAggregate.
type BatchStarJoin struct {
	Fact BatchIterator
	Dims []StarDim
	// Stats, when non-nil, collects the join's actuals.
	Stats *OpStats

	tables   []map[types.Value][]types.Value
	out      *vec.Batch
	buf      []types.Value
	factOpen bool
}

// Open implements BatchIterator.
func (s *BatchStarJoin) Open() error {
	if s.Stats != nil {
		t0 := time.Now()
		defer func() { s.Stats.AddWall(time.Since(t0)) }()
	}
	s.tables, s.out = make([]map[types.Value][]types.Value, len(s.Dims)), nil
	for i, d := range s.Dims {
		rows, err := CollectBatches(d.In)
		if err != nil {
			return err
		}
		tbl := make(map[types.Value][]types.Value, len(rows))
		for _, row := range rows {
			k := row[d.KeyCol]
			if k.IsNull() {
				continue
			}
			if _, dup := tbl[k]; dup {
				return fmt.Errorf("engine: star join dimension %d has duplicate key %v", i, k)
			}
			payload := make([]types.Value, len(d.Payload))
			for j, c := range d.Payload {
				payload[j] = row[c]
			}
			tbl[k] = payload
		}
		s.tables[i] = tbl
	}
	if err := s.Fact.Open(); err != nil {
		return err
	}
	s.factOpen = true
	return nil
}

// Next implements BatchIterator.
func (s *BatchStarJoin) Next() (*vec.Batch, error) {
	if !s.factOpen {
		return nil, ErrNotOpen
	}
	if s.Stats != nil {
		t0 := time.Now()
		defer func() { s.Stats.AddWall(time.Since(t0)) }()
	}
	for {
		b, err := s.Fact.Next()
		if err != nil || b == nil {
			return nil, err
		}
		if s.out == nil {
			width := b.NumCols()
			for _, d := range s.Dims {
				width += len(d.Payload)
			}
			s.out = vec.New(make([]types.Kind, width))
		}
		s.out.Reset()
	probe:
		for i := 0; i < b.Rows(); i++ {
			s.buf = b.RowAt(i, s.buf)
			for di, d := range s.Dims {
				k := s.buf[d.FactCol]
				if k.IsNull() {
					continue probe
				}
				payload, hit := s.tables[di][k]
				if !hit {
					continue probe
				}
				s.buf = append(s.buf, payload...)
			}
			s.out.AppendRow(s.buf)
		}
		if s.out.Len() > 0 {
			s.Stats.AddOut(s.out.Len())
			return s.out, nil
		}
	}
}

// Close implements BatchIterator: the dimensions were closed when
// their drains in Open finished. Idempotent.
func (s *BatchStarJoin) Close() error {
	if !s.factOpen {
		return nil
	}
	s.factOpen = false
	return s.Fact.Close()
}
