package core

import (
	"repro/internal/dict"
	"repro/internal/l1delta"
	"repro/internal/l2delta"
	"repro/internal/mainstore"
	"repro/internal/mvcc"
	"repro/internal/types"
)

// View is a statement's pinned, consistent view of a table: the
// shared latch is held for the View's lifetime and the structural
// borders are captured once, so "running operations either see the
// full L1-delta and the old end-of-delta border or the truncated
// version of the L1-delta structure with the expanded version of the
// L2-delta" (§3.1). Logical row visibility is MVCC against the
// transaction's snapshot.
//
// Close the view when the statement finishes.
type View struct {
	t    *Table
	snap uint64
	self uint64

	l1       *l1delta.Store
	l1Border int
	l2s      []*l2delta.Store
	borders  []int
	main     *mainstore.Store
	tombs    *mainstore.Tombstones
	closed   bool
}

// View pins a read view for tx. Pass a nil transaction for a
// read-only snapshot of the latest committed state.
func (t *Table) View(tx *mvcc.Txn) *View {
	var snap, self uint64
	if tx != nil {
		tx.BeginStatement()
		snap, self = tx.ReadTS(), tx.Marker()
	} else {
		snap = t.db.mgr.LastCommitted()
	}
	return t.viewAt(snap, self)
}

// AsOf pins a time-travel view at an explicit snapshot timestamp.
// History tables keep all versions, so any past timestamp is valid;
// regular tables are valid back to the GC watermark.
func (t *Table) AsOf(ts uint64) *View { return t.viewAt(ts, 0) }

func (t *Table) viewAt(snap, self uint64) *View {
	t.mu.RLock()
	v := &View{
		t:     t,
		snap:  snap,
		self:  self,
		l1:    t.l1,
		main:  t.main,
		tombs: t.tombs,
	}
	v.l1Border = v.l1.Len()
	v.l2s = t.l2Generations()
	v.borders = make([]int, len(v.l2s))
	for i, g := range v.l2s {
		v.borders[i] = g.Len()
	}
	return v
}

// Close releases the view's latch. Idempotent.
func (v *View) Close() {
	if !v.closed {
		v.closed = true
		v.t.mu.RUnlock()
	}
}

// Match is one visible row produced by a view read.
type Match struct {
	ID  types.RowID
	Row []types.Value
}

// ScanAll streams every visible row — L1-delta, then L2-delta
// generations, then main — to fn; fn returning false stops the scan.
func (v *View) ScanAll(fn func(id types.RowID, row []types.Value) bool) {
	cont := true
	v.l1.ScanVisible(v.l1Border, v.snap, v.self, func(_ int, r *l1delta.Row) bool {
		cont = fn(r.ID, r.Values)
		return cont
	})
	if !cont {
		return
	}
	for gi, g := range v.l2s {
		g.ScanVisible(v.borders[gi], v.snap, v.self, func(pos int) bool {
			cont = fn(g.RowID(pos), g.Row(pos))
			return cont
		})
		if !cont {
			return
		}
	}
	v.main.ScanVisible(v.tombs, v.snap, v.self, func(loc mainstore.Loc) bool {
		cont = fn(v.main.RowID(loc), v.main.Row(loc))
		return cont
	})
}

// GroupSpace describes one dictionary code space produced by
// ScanGrouped: its (initial) cardinality and a resolver from code to
// value. The L1 space is built on the fly and grows during the scan;
// its resolver is valid once the scan returns.
type GroupSpace struct {
	Card    int
	Resolve func(code uint32) types.Value
}

// ScanGrouped streams every visible row as (space, code, vals): the
// grouping column arrives as a dictionary code within one of the
// returned code spaces (space 0 = L1-delta computed on the fly,
// spaces 1..k = L2-delta generations, space k+1 = main chain), and
// code -1 signals NULL. Aggregation operators group by (space, code)
// with array-indexed accumulators instead of hashing values — the
// paper's dictionary-encoded operator execution (§4.1). vals is
// reused; fn must not retain it.
func (v *View) ScanGrouped(groupCol int, dataCols []int,
	fn func(space int, code int32, vals []types.Value) bool) []GroupSpace {
	kind := v.t.cfg.Schema.Columns[groupCol].Kind
	l1Dict := dict.NewUnsorted(kind)
	spaces := make([]GroupSpace, 0, len(v.l2s)+2)
	spaces = append(spaces, GroupSpace{Card: 0, Resolve: func(c uint32) types.Value { return l1Dict.At(c) }})
	for _, g := range v.l2s {
		d := g.Dict(groupCol)
		spaces = append(spaces, GroupSpace{Card: d.Len(), Resolve: func(c uint32) types.Value { return d.At(c) }})
	}
	main := v.main
	spaces = append(spaces, GroupSpace{
		Card:    main.Cardinality(groupCol),
		Resolve: func(c uint32) types.Value { return main.ResolveCode(groupCol, c) },
	})

	cont := true
	l1Vals := make([]types.Value, len(dataCols))
	v.l1.ScanVisible(v.l1Border, v.snap, v.self, func(_ int, r *l1delta.Row) bool {
		code := int32(-1)
		if gv := r.Values[groupCol]; !gv.IsNull() {
			code = int32(l1Dict.GetOrAdd(gv))
		}
		for i, c := range dataCols {
			l1Vals[i] = r.Values[c]
		}
		cont = fn(0, code, l1Vals)
		return cont
	})
	if !cont {
		return spaces
	}
	for gi, g := range v.l2s {
		space := 1 + gi
		g.ScanVisibleGroupCodes(groupCol, dataCols, v.borders[gi], v.snap, v.self,
			func(_ int, code int32, vals []types.Value) bool {
				cont = fn(space, code, vals)
				return cont
			})
		if !cont {
			return spaces
		}
	}
	mainSpace := len(spaces) - 1
	main.ScanVisibleGroupCodes(groupCol, dataCols, v.tombs, v.snap, v.self,
		func(_ mainstore.Loc, code int32, vals []types.Value) bool {
			cont = fn(mainSpace, code, vals)
			return cont
		})
	return spaces
}

// PointLookup returns the visible rows whose column equals val, using
// the point-access structures of each stage: the L1 key hash index
// (key column only), the L2 inverted indexes over unsorted
// dictionaries, and the main chain's sorted dictionaries plus
// inverted indexes (§3.1, §4.3).
func (v *View) PointLookup(col int, val types.Value) []Match {
	var out []Match
	if col == v.t.cfg.Schema.Key {
		for _, pos := range v.l1.LookupKey(val) {
			if pos >= v.l1Border {
				continue
			}
			r := v.l1.At(pos)
			if mvcc.VisibleStamp(r.Stamp, v.snap, v.self) {
				out = append(out, Match{ID: r.ID, Row: r.Values})
			}
		}
	} else {
		v.l1.ScanVisible(v.l1Border, v.snap, v.self, func(_ int, r *l1delta.Row) bool {
			if !r.Values[col].IsNull() && types.Equal(r.Values[col], val) {
				out = append(out, Match{ID: r.ID, Row: r.Values})
			}
			return true
		})
	}
	for gi, g := range v.l2s {
		for _, pos := range g.LookupValue(col, val, 0) {
			if pos >= v.borders[gi] {
				continue
			}
			st := g.Stamp(pos)
			if mvcc.Visible(st.Create(), st.Delete(), v.snap, v.self) {
				out = append(out, Match{ID: g.RowID(pos), Row: g.Row(pos)})
			}
		}
	}
	for _, loc := range v.main.PointLookup(col, val) {
		if v.main.Visible(loc, v.tombs, v.snap, v.self) {
			out = append(out, Match{ID: v.main.RowID(loc), Row: v.main.Row(loc)})
		}
	}
	return out
}

// Get returns the visible row with the given primary key, or nil.
func (v *View) Get(key types.Value) *Match {
	ms := v.PointLookup(v.t.cfg.Schema.Key, key)
	if len(ms) == 0 {
		return nil
	}
	return &ms[0]
}

// Count returns the number of visible rows.
func (v *View) Count() int {
	n := 0
	v.ScanAll(func(types.RowID, []types.Value) bool { n++; return true })
	return n
}
