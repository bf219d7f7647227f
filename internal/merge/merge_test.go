package merge

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dict"
	"repro/internal/l1delta"
	"repro/internal/l2delta"
	"repro/internal/mainstore"
	"repro/internal/mvcc"
	"repro/internal/types"
	"repro/internal/vec"
)

func testSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "id", Kind: types.KindInt64},
		{Name: "city", Kind: types.KindString, Nullable: true},
		{Name: "qty", Kind: types.KindInt64},
	}, 0)
}

func row(id int64, city string, qty int64) []types.Value {
	cv := types.Null
	if city != "" {
		cv = types.Str(city)
	}
	return []types.Value{types.Int(id), cv, types.Int(qty)}
}

// commitRows inserts rows into an L1-delta through committed txns.
func commitRows(m *mvcc.Manager, l1 *l1delta.Store, rows ...[]types.Value) {
	for _, r := range rows {
		tx := m.Begin(mvcc.TxnSnapshot)
		st := mvcc.NewStamp(tx.Marker())
		tx.RecordCreate(st)
		l1.Append(&l1delta.Row{ID: types.RowID(r[0].I), Values: r, Stamp: st})
		tx.Commit()
	}
}

// l2With builds a closed L2-delta holding the rows (committed).
func l2With(m *mvcc.Manager, rows ...[]types.Value) *l2delta.Store {
	s := l2delta.New(testSchema(), nil)
	for _, r := range rows {
		tx := m.Begin(mvcc.TxnSnapshot)
		st := mvcc.NewStamp(tx.Marker())
		tx.RecordCreate(st)
		s.AppendRow(r, types.RowID(r[0].I), st)
		tx.Commit()
	}
	return s
}

// l2Cells records every code, value and dictionary entry of an
// L2-delta, so a later append can be checked against it.
type l2Cells struct {
	codes [][]uint32
	vals  [][]types.Value
	dicts [][]types.Value
}

func snapshotL2(s *l2delta.Store) l2Cells {
	var c l2Cells
	for pos := 0; pos < s.Len(); pos++ {
		var codes []uint32
		for col := range s.Schema().Columns {
			codes = append(codes, s.Codes(col).Get(pos))
		}
		c.codes = append(c.codes, codes)
		c.vals = append(c.vals, s.Row(pos))
	}
	for col := range s.Schema().Columns {
		var d []types.Value
		for code := 0; code < s.Dict(col).Len(); code++ {
			d = append(d, s.Dict(col).At(uint32(code)))
		}
		c.dicts = append(c.dicts, d)
	}
	return c
}

// TestL1ToL2MovesSettledPrefix runs the L1→L2 merge (Fig. 6) into an
// empty and into a non-empty L2-delta. The merge only appends: the
// rows already in the target keep their positions, dictionary codes
// and values, the dictionaries only grow at the end, and a batch value
// already in a dictionary reuses its code.
func TestL1ToL2MovesSettledPrefix(t *testing.T) {
	for _, existing := range [][][]types.Value{
		nil,
		{row(10, "Walldorf", 3), row(11, "", 4), row(12, "Seoul", 9), row(13, "Walldorf", 1)},
	} {
		m := mvcc.NewManager()
		l1 := l1delta.New(testSchema())
		l2 := l2With(m, existing...)
		before := snapshotL2(l2)
		commitRows(m, l1, row(1, "Berlin", 5), row(2, "Seoul", 7))

		// Row 3 is uncommitted: the merge must stop before it.
		tx := m.Begin(mvcc.TxnSnapshot)
		st := mvcc.NewStamp(tx.Marker())
		tx.RecordCreate(st)
		l1.Append(&l1delta.Row{ID: 3, Values: row(3, "x", 1), Stamp: st})

		newL1, moved, dropped := L1ToL2(l1, l2, 1000)
		if moved != 2 || dropped != 0 {
			t.Fatalf("moved=%d dropped=%d", moved, dropped)
		}
		if newL1.Len() != 1 || newL1.At(0).ID != 3 {
			t.Errorf("truncated L1 = %d rows", newL1.Len())
		}
		base := len(existing)
		if l2.Len() != base+2 {
			t.Fatalf("L2 rows = %d, want %d", l2.Len(), base+2)
		}
		if got := l2.Value(base, 1); got.S != "Berlin" {
			t.Errorf("pivoted value = %v", got)
		}
		if got := l2.Value(base+1, 0); got.I != 2 {
			t.Errorf("pivoted id = %v", got)
		}
		// Stamps are shared objects (commit write-through preserved).
		if l2.Stamp(base) != l1.At(0).Stamp {
			t.Error("stamp not shared across stores")
		}

		after := snapshotL2(l2)
		for pos := range before.codes {
			if fmt.Sprint(after.codes[pos]) != fmt.Sprint(before.codes[pos]) ||
				fmt.Sprint(after.vals[pos]) != fmt.Sprint(before.vals[pos]) {
				t.Errorf("existing row %d changed: codes %v → %v, values %v → %v",
					pos, before.codes[pos], after.codes[pos], before.vals[pos], after.vals[pos])
			}
		}
		for col, d := range before.dicts {
			if len(after.dicts[col]) < len(d) ||
				fmt.Sprint(after.dicts[col][:len(d)]) != fmt.Sprint(d) {
				t.Errorf("column %d dictionary %v was re-encoded to %v", col, d, after.dicts[col])
			}
		}
		if base > 0 && after.codes[base+1][1] != before.codes[2][1] {
			t.Errorf("batch Seoul got code %d, existing Seoul has %d",
				after.codes[base+1][1], before.codes[2][1])
		}
		if err := l2.CheckInvariants(); err != nil {
			t.Error(err)
		}
		tx.Abort()
	}
}

func TestL1ToL2DropsAborted(t *testing.T) {
	m := mvcc.NewManager()
	l1 := l1delta.New(testSchema())
	l2 := l2delta.New(testSchema(), nil)
	tx := m.Begin(mvcc.TxnSnapshot)
	st := mvcc.NewStamp(tx.Marker())
	tx.RecordCreate(st)
	l1.Append(&l1delta.Row{ID: 1, Values: row(1, "a", 1), Stamp: st})
	tx.Abort()
	commitRows(m, l1, row(2, "b", 2))

	_, moved, dropped := L1ToL2(l1, l2, 1000)
	if moved != 1 || dropped != 1 {
		t.Fatalf("moved=%d dropped=%d", moved, dropped)
	}
	if l2.Len() != 1 || l2.RowID(0) != 2 {
		t.Errorf("L2 = %d rows, first id %d", l2.Len(), l2.RowID(0))
	}
}

func TestL1ToL2RespectsMaxRows(t *testing.T) {
	m := mvcc.NewManager()
	l1 := l1delta.New(testSchema())
	l2 := l2delta.New(testSchema(), nil)
	commitRows(m, l1, row(1, "a", 1), row(2, "b", 2), row(3, "c", 3))
	newL1, moved, _ := L1ToL2(l1, l2, 2)
	if moved != 2 || newL1.Len() != 1 {
		t.Fatalf("moved=%d rest=%d", moved, newL1.Len())
	}
}

func defaultOpts(m *mvcc.Manager) Options {
	return Options{Watermark: m.Watermark(), Compress: true, CompactDicts: true}
}

func TestClassicFirstMerge(t *testing.T) {
	m := mvcc.NewManager()
	l2 := l2With(m, row(3, "Los Gatos", 1), row(1, "Campbell", 2), row(2, "", 3))
	l2.Close()
	tombs := mainstore.NewTombstones()
	main, stats, err := Classic(l2, nil, tombs, defaultOpts(m))
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsDelta != 3 || stats.RowsMain != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if main.NumRows() != 3 || main.NumParts() != 1 {
		t.Fatalf("main rows=%d parts=%d", main.NumRows(), main.NumParts())
	}
	// Sorted dictionary: Campbell < Los Gatos.
	d := main.Parts()[0].Dict(1)
	if d.Len() != 2 || d.At(0).S != "Campbell" {
		t.Errorf("dict has %d entries", d.Len())
	}
	// NULL preserved.
	locs := main.PointLookup(0, types.Int(2))
	if len(locs) != 1 {
		t.Fatalf("lookup = %v", locs)
	}
	if got := main.Value(locs[0], 1); !got.IsNull() {
		t.Errorf("null cell = %v", got)
	}
	if err := main.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestClassicMergeWithExistingMainPaperExample(t *testing.T) {
	m := mvcc.NewManager()
	// Old main: Daily City, Los Gatos, San Jose (via first merge).
	l2a := l2With(m, row(1, "Daily City", 1), row(2, "Los Gatos", 1), row(3, "San Jose", 1))
	l2a.Close()
	tombs := mainstore.NewTombstones()
	main, _, err := Classic(l2a, nil, tombs, defaultOpts(m))
	if err != nil {
		t.Fatal(err)
	}
	// Delta: Los Gatos, Campbell, San Francisco (Fig. 7 arrival order).
	l2b := l2With(m, row(4, "Los Gatos", 1), row(5, "Campbell", 1), row(6, "San Francisco", 1))
	l2b.Close()
	merged, stats, err := Classic(l2b, main, tombs, defaultOpts(m))
	if err != nil {
		t.Fatal(err)
	}
	d := merged.Parts()[0].Dict(1)
	want := []string{"Campbell", "Daily City", "Los Gatos", "San Francisco", "San Jose"}
	if d.Len() != len(want) {
		t.Fatalf("dict has %d entries", d.Len())
	}
	for i, w := range want {
		if got := d.At(uint32(i)).S; got != w {
			t.Fatalf("dict[%d] = %q, want %q", i, got, w)
		}
	}
	if stats.FastPaths[1] != dict.FastPathNone {
		t.Errorf("city fast path = %v", stats.FastPaths[1])
	}
	// Main rows first, delta appended.
	if merged.RowID(mainstore.Loc{Part: 0, Pos: 0}) != 1 || merged.RowID(mainstore.Loc{Part: 0, Pos: 3}) != 4 {
		t.Error("row order not main-then-delta")
	}
	// Existing and new entries re-encoded correctly.
	locs := merged.PointLookup(1, types.Str("Los Gatos"))
	if len(locs) != 2 {
		t.Errorf("Los Gatos locs = %v", locs)
	}
	if err := merged.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestClassicFastPaths(t *testing.T) {
	m := mvcc.NewManager()
	l2a := l2With(m, row(1, "a", 10), row(2, "b", 20))
	l2a.Close()
	tombs := mainstore.NewTombstones()
	main, _, _ := Classic(l2a, nil, tombs, defaultOpts(m))

	// Delta where city ⊆ main dict (subset) and qty all greater
	// (append-only, like increasing timestamps). Ids are ascending too.
	l2b := l2With(m, row(3, "a", 30), row(4, "b", 40))
	l2b.Close()
	_, stats, err := Classic(l2b, main, tombs, defaultOpts(m))
	if err != nil {
		t.Fatal(err)
	}
	if stats.FastPaths[1] != dict.FastPathSubset {
		t.Errorf("city path = %v, want subset", stats.FastPaths[1])
	}
	if stats.FastPaths[2] != dict.FastPathAppend {
		t.Errorf("qty path = %v, want append", stats.FastPaths[2])
	}
	if stats.FastPaths[0] != dict.FastPathAppend {
		t.Errorf("id path = %v, want append", stats.FastPaths[0])
	}
}

func TestMergeGarbageCollection(t *testing.T) {
	m := mvcc.NewManager()
	l2 := l2With(m, row(1, "a", 1), row(2, "b", 2), row(3, "c", 3))
	// Delete row 2, commit: with no older snapshots the version is
	// collectable.
	tx := m.Begin(mvcc.TxnSnapshot)
	if !l2.Stamp(1).ClaimDelete(tx.Marker()) {
		t.Fatal("claim failed")
	}
	tx.RecordDelete(l2.Stamp(1))
	tx.Commit()
	l2.Close()

	tombs := mainstore.NewTombstones()
	main, stats, err := Classic(l2, nil, tombs, defaultOpts(m))
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsDropped != 1 || len(stats.DroppedRowIDs) != 1 || stats.DroppedRowIDs[0] != 2 {
		t.Errorf("stats = %+v", stats)
	}
	if main.NumRows() != 2 {
		t.Fatalf("rows = %d", main.NumRows())
	}
	// Dictionary garbage ("b", qty 2, id 2) discarded.
	if stats.DictGarbage != 3 {
		t.Errorf("DictGarbage = %d, want 3", stats.DictGarbage)
	}
	if _, _, found := main.LookupCode(1, types.Str("b")); found {
		t.Error("dead dictionary entry survived compaction")
	}
}

func TestMergeKeepsVersionsAboveWatermark(t *testing.T) {
	m := mvcc.NewManager()
	l2 := l2With(m, row(1, "a", 1))
	// An old reader pins the watermark.
	reader := m.Begin(mvcc.TxnSnapshot)
	tx := m.Begin(mvcc.TxnSnapshot)
	l2.Stamp(0).ClaimDelete(tx.Marker())
	tx.RecordDelete(l2.Stamp(0))
	tx.Commit()
	l2.Close()

	tombs := mainstore.NewTombstones()
	main, stats, err := Classic(l2, nil, tombs, defaultOpts(m))
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsDropped != 0 || main.NumRows() != 1 {
		t.Fatalf("dropped=%d rows=%d", stats.RowsDropped, main.NumRows())
	}
	// The delete stamp must have been adopted into the registry and
	// the row flagged, so the old reader still sees it and new readers
	// do not.
	loc := mainstore.Loc{Part: 0, Pos: 0}
	if !main.Visible(loc, tombs, reader.ReadTS(), reader.Marker()) {
		t.Error("old reader lost the row")
	}
	if main.Visible(loc, tombs, m.LastCommitted(), 0) {
		t.Error("new reader sees deleted row")
	}
	reader.Commit()
}

func TestMergeUnsettledDeltaRejected(t *testing.T) {
	m := mvcc.NewManager()
	l2 := l2delta.New(testSchema(), nil)
	tx := m.Begin(mvcc.TxnSnapshot)
	st := mvcc.NewStamp(tx.Marker())
	tx.RecordCreate(st)
	l2.AppendRow(row(1, "a", 1), 1, st)
	l2.Close()
	tombs := mainstore.NewTombstones()
	if _, _, err := Classic(l2, nil, tombs, defaultOpts(m)); !errors.Is(err, ErrNotSettled) {
		t.Fatalf("err = %v, want ErrNotSettled", err)
	}
	tx.Commit()
	if _, _, err := Classic(l2, nil, tombs, defaultOpts(m)); err != nil {
		t.Fatalf("retry after commit: %v", err)
	}
}

func TestResortMergeImprovesCompression(t *testing.T) {
	m := mvcc.NewManager()
	// Shuffled low-cardinality city column: classic keeps arrival
	// order (poor runs), resort clusters it.
	rng := rand.New(rand.NewSource(42))
	cities := []string{"Berlin", "Seoul", "Palo Alto", "Walldorf"}
	var rows [][]types.Value
	for i := 0; i < 4000; i++ {
		rows = append(rows, row(int64(i+1), cities[rng.Intn(4)], int64(rng.Intn(3))))
	}
	l2a := l2With(m, rows...)
	l2a.Close()
	tombs := mainstore.NewTombstones()
	classic, _, err := Classic(l2a, nil, tombs, defaultOpts(m))
	if err != nil {
		t.Fatal(err)
	}
	l2b := l2With(m, rows...) // fresh identical delta
	l2b.Close()
	resorted, stats, err := Resort(l2b, nil, mainstore.NewTombstones(), defaultOpts(m))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.SortColumns) == 0 {
		t.Fatal("no sort columns chosen")
	}
	// qty (card 3) should be the primary key, then city (card 4).
	if stats.SortColumns[0] != 2 {
		t.Errorf("primary sort column = %d, want 2 (qty)", stats.SortColumns[0])
	}
	if len(stats.RowMap) != 4000 {
		t.Fatalf("RowMap len = %d", len(stats.RowMap))
	}
	if resorted.MemSize() >= classic.MemSize() {
		t.Errorf("resort %dB not smaller than classic %dB", resorted.MemSize(), classic.MemSize())
	}
	// Row content preserved: every row id maps to identical values.
	for pos := 0; pos < 4000; pos++ {
		locC := mainstore.Loc{Part: 0, Pos: pos}
		id := classic.RowID(locC)
		locs := resorted.PointLookup(0, types.Int(int64(id)))
		if len(locs) != 1 {
			t.Fatalf("id %d found %d times after resort", id, len(locs))
		}
		for ci := 0; ci < 3; ci++ {
			a, b := classic.Value(locC, ci), resorted.Value(locs[0], ci)
			if a.IsNull() != b.IsNull() || (!a.IsNull() && !types.Equal(a, b)) {
				t.Fatalf("row %d col %d: %v vs %v", id, ci, a, b)
			}
		}
	}
	if err := resorted.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPartialMergeKeepsPassiveUntouched(t *testing.T) {
	m := mvcc.NewManager()
	l2a := l2With(m, row(1, "Campbell", 1), row(2, "Daily City", 1), row(3, "Los Gatos", 1), row(4, "San Jose", 1))
	l2a.Close()
	tombs := mainstore.NewTombstones()
	main, _, err := Classic(l2a, nil, tombs, defaultOpts(m))
	if err != nil {
		t.Fatal(err)
	}
	passivePart := main.Parts()[0]

	// Partial merge with newPart=true: the classic main becomes the
	// passive, the delta builds the active.
	l2b := l2With(m, row(5, "Los Angeles", 1), row(6, "Campbell", 1), row(7, "San Francisco", 1))
	l2b.Close()
	split, stats, err := Partial(l2b, main, tombs, defaultOpts(m), true)
	if err != nil {
		t.Fatal(err)
	}
	if split.NumParts() != 2 {
		t.Fatalf("parts = %d", split.NumParts())
	}
	if split.Parts()[0] != passivePart {
		t.Error("passive part was rebuilt")
	}
	active := split.Parts()[1]
	// Active dictionary: only the 2 new cities, offset n=4.
	if active.Dict(1).Len() != 2 || active.CodeOffset(1) != 4 {
		t.Errorf("active dict len=%d offset=%d", active.Dict(1).Len(), active.CodeOffset(1))
	}
	// Campbell row in active references passive code 0.
	if code := active.Values(1).Get(1); code != 0 {
		t.Errorf("Campbell code = %d", code)
	}
	if stats.RowsMain != 0 || stats.RowsDelta != 3 {
		t.Errorf("stats = %+v", stats)
	}
	if err := split.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A further partial merge (newPart=false) rebuilds only the active.
	l2c := l2With(m, row(8, "Oakland", 1), row(9, "Los Gatos", 1))
	l2c.Close()
	split2, _, err := Partial(l2c, split, tombs, defaultOpts(m), false)
	if err != nil {
		t.Fatal(err)
	}
	if split2.NumParts() != 2 || split2.Parts()[0] != passivePart {
		t.Fatalf("second partial: parts=%d", split2.NumParts())
	}
	if split2.Parts()[1].Dict(1).Len() != 3 { // LA, Oakland, SF
		t.Errorf("active dict has %d entries", split2.Parts()[1].Dict(1).Len())
	}
	// Range query C..M across the chain (Fig. 10).
	cur := split2.NewBatchScan([]int{0}, tombs, m.LastCommitted(), 0)
	cur.FilterRange(1, types.Str("C"), types.Str("M"), true, false)
	idCol := vec.NewCol(types.KindInt64)
	for more := true; more; {
		_, more = cur.Fill([]*vec.Col{idCol}, 1024)
	}
	ids := idCol.Ints
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	want := []int64{1, 2, 3, 5, 6, 9}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Errorf("range ids = %v, want %v", ids, want)
	}

	// Full merge collapses the chain back to one part.
	l2d := l2With(m, row(10, "Zurich", 1))
	l2d.Close()
	full, _, err := Classic(l2d, split2, tombs, defaultOpts(m))
	if err != nil {
		t.Fatal(err)
	}
	if full.NumParts() != 1 || full.NumRows() != 10 {
		t.Fatalf("full merge: parts=%d rows=%d", full.NumParts(), full.NumRows())
	}
	d := full.Parts()[0].Dict(1)
	for i := 1; i < d.Len(); i++ {
		if types.Compare(d.At(uint32(i-1)), d.At(uint32(i))) >= 0 {
			t.Fatal("collapsed dictionary not sorted")
		}
	}
	if err := full.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPartialMergeGCInActiveOnly(t *testing.T) {
	m := mvcc.NewManager()
	l2a := l2With(m, row(1, "a", 1))
	l2a.Close()
	tombs := mainstore.NewTombstones()
	main, _, _ := Classic(l2a, nil, tombs, defaultOpts(m))

	l2b := l2With(m, row(2, "b", 2), row(3, "c", 3))
	// Delete row 2 (will be in the delta) and row 1 (in the passive).
	tx := m.Begin(mvcc.TxnSnapshot)
	l2b.Stamp(0).ClaimDelete(tx.Marker())
	tx.RecordDelete(l2b.Stamp(0))
	st, ok := tombs.Claim(1, main.CreateTS(mainstore.Loc{Part: 0, Pos: 0}), tx.Marker())
	if !ok {
		t.Fatal("claim failed")
	}
	tx.RecordDelete(st)
	main.MarkDeleted(mainstore.Loc{Part: 0, Pos: 0})
	tx.Commit()
	l2b.Close()

	split, stats, err := Partial(l2b, main, tombs, Options{Watermark: m.Watermark(), Compress: true, CompactDicts: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Only the delta row is collected; the passive row stays
	// physically present but invisible.
	if stats.RowsDropped != 1 || stats.DroppedRowIDs[0] != 2 {
		t.Errorf("stats = %+v", stats)
	}
	if split.NumRows() != 2 { // row 1 (dead) + row 3
		t.Fatalf("rows = %d", split.NumRows())
	}
	if split.Visible(mainstore.Loc{Part: 0, Pos: 0}, tombs, m.LastCommitted(), 0) {
		t.Error("passive deleted row visible")
	}
	visible := 0
	split.ScanVisible(tombs, m.LastCommitted(), 0, func(mainstore.Loc) bool { visible++; return true })
	if visible != 1 {
		t.Errorf("visible rows = %d", visible)
	}
}

func TestFailPointAborts(t *testing.T) {
	m := mvcc.NewManager()
	l2 := l2With(m, row(1, "a", 1))
	l2.Close()
	opts := defaultOpts(m)
	boom := errors.New("boom")
	opts.FailPoint = func(stage string) error {
		if stage == "build" {
			return boom
		}
		return nil
	}
	if _, _, err := Classic(l2, nil, mainstore.NewTombstones(), opts); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The closed delta is untouched: a retry without the fail point
	// succeeds (§3.1 retry semantics).
	opts.FailPoint = nil
	if _, _, err := Classic(l2, nil, mainstore.NewTombstones(), opts); err != nil {
		t.Fatal(err)
	}
}

// TestMergePreservesVisibleMultiset is the central merge invariant:
// for random workloads, the multiset of visible rows is identical
// before and after any merge variant.
func TestMergePreservesVisibleMultiset(t *testing.T) {
	for _, kind := range []string{"classic", "resort", "partial", "partial-new"} {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := mvcc.NewManager()
			tombs := mainstore.NewTombstones()

			// Base main from one delta.
			var base [][]types.Value
			id := int64(1)
			for i := 0; i < 20+rng.Intn(30); i++ {
				base = append(base, row(id, fmt.Sprintf("c%d", rng.Intn(8)), int64(rng.Intn(5))))
				id++
			}
			l2a := l2With(m, base...)
			l2a.Close()
			main, _, err := Classic(l2a, nil, tombs, defaultOpts(m))
			if err != nil {
				t.Fatal(err)
			}
			// Random deletes on main rows.
			for pos := 0; pos < main.NumRows(); pos++ {
				if rng.Intn(4) == 0 {
					loc := mainstore.Loc{Part: 0, Pos: pos}
					tx := m.Begin(mvcc.TxnSnapshot)
					st, ok := tombs.Claim(main.RowID(loc), main.CreateTS(loc), tx.Marker())
					if !ok {
						t.Fatal("claim failed")
					}
					tx.RecordDelete(st)
					main.MarkDeleted(loc)
					if rng.Intn(5) == 0 {
						tx.Abort()
					} else {
						tx.Commit()
					}
				}
			}
			// New delta with inserts and some deletes.
			var fresh [][]types.Value
			for i := 0; i < 10+rng.Intn(20); i++ {
				fresh = append(fresh, row(id, fmt.Sprintf("c%d", rng.Intn(10)), int64(rng.Intn(5))))
				id++
			}
			l2b := l2With(m, fresh...)
			for pos := 0; pos < l2b.Len(); pos++ {
				if rng.Intn(5) == 0 {
					tx := m.Begin(mvcc.TxnSnapshot)
					l2b.Stamp(pos).ClaimDelete(tx.Marker())
					tx.RecordDelete(l2b.Stamp(pos))
					tx.Commit()
				}
			}
			l2b.Close()

			snap := m.LastCommitted()
			before := map[string]int{}
			main.ScanVisible(tombs, snap, 0, func(l mainstore.Loc) bool {
				before[fmt.Sprint(main.Row(l))]++
				return true
			})
			l2b.ScanVisible(l2b.Len(), snap, 0, func(pos int) bool {
				before[fmt.Sprint(l2b.Row(pos))]++
				return true
			})

			opts := defaultOpts(m)
			var merged *mainstore.Store
			switch kind {
			case "classic":
				merged, _, err = Classic(l2b, main, tombs, opts)
			case "resort":
				merged, _, err = Resort(l2b, main, tombs, opts)
			case "partial":
				merged, _, err = Partial(l2b, main, tombs, opts, false)
			case "partial-new":
				merged, _, err = Partial(l2b, main, tombs, opts, true)
			}
			if err != nil {
				t.Fatalf("%s seed %d: %v", kind, seed, err)
			}
			after := map[string]int{}
			merged.ScanVisible(tombs, snap, 0, func(l mainstore.Loc) bool {
				after[fmt.Sprint(merged.Row(l))]++
				return true
			})
			if len(before) != len(after) {
				t.Fatalf("%s seed %d: %d visible rows before, %d after", kind, seed, len(before), len(after))
			}
			for k, n := range before {
				if after[k] != n {
					t.Fatalf("%s seed %d: row %s count %d→%d", kind, seed, k, n, after[k])
				}
			}
			if err := merged.CheckInvariants(); err != nil {
				t.Fatalf("%s seed %d: %v", kind, seed, err)
			}
		}
	}
}
