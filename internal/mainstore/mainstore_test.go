package mainstore

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/dict"
	"repro/internal/mvcc"
	"repro/internal/types"
	"repro/internal/vec"
)

// genesisTS is the commit timestamp of rows loaded outside any
// transaction.
const genesisTS uint64 = 1

func testSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "id", Kind: types.KindInt64},
		{Name: "city", Kind: types.KindString, Nullable: true},
	}, 0)
}

// buildChain builds a Store whose parts contain the given row groups,
// constructing dictionaries the way the partial merge would: each
// part's local dictionary holds only values unseen in earlier parts,
// and value indexes reference earlier codes where possible.
func buildChain(t *testing.T, schema *types.Schema, groups ...[][]types.Value) *Store {
	t.Helper()
	ncols := len(schema.Columns)
	type colState struct {
		values []types.Value // global code → value
		lookup map[types.Value]uint32
	}
	states := make([]*colState, ncols)
	for i := range states {
		states[i] = &colState{lookup: map[types.Value]uint32{}}
	}
	indexed := make([]bool, ncols)
	if schema.Key >= 0 {
		indexed[schema.Key] = true
	}
	var parts []*Part
	rowID := types.RowID(1)
	for _, rows := range groups {
		dicts := make([]*dict.Sorted, ncols)
		offsets := make([]uint32, ncols)
		// Collect new distinct values per column.
		for ci := 0; ci < ncols; ci++ {
			offsets[ci] = uint32(len(states[ci].values))
			var fresh []types.Value
			seen := map[types.Value]bool{}
			for _, r := range rows {
				v := r[ci]
				if v.IsNull() || seen[v] {
					continue
				}
				if _, ok := states[ci].lookup[v]; ok {
					continue
				}
				seen[v] = true
				fresh = append(fresh, v)
			}
			sort.Slice(fresh, func(a, b int) bool { return types.Less(fresh[a], fresh[b]) })
			for _, v := range fresh {
				states[ci].lookup[v] = uint32(len(states[ci].values))
				states[ci].values = append(states[ci].values, v)
			}
			dicts[ci] = dict.NewSortedFromValues(schema.Columns[ci].Kind, fresh)
		}
		b := NewPartBuilder(schema, dicts, offsets, indexed)
		codes := make([]uint32, ncols)
		nulls := make([]bool, ncols)
		for _, r := range rows {
			for ci, v := range r {
				if v.IsNull() {
					nulls[ci] = true
					codes[ci] = 0
				} else {
					nulls[ci] = false
					codes[ci] = states[ci].lookup[v]
				}
			}
			b.AppendRow(codes, nulls, rowID, genesisTS, false)
			rowID++
		}
		parts = append(parts, b.Seal(true))
	}
	s := NewStore(schema, parts...)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return s
}

func rows(vals ...[]types.Value) [][]types.Value { return vals }

// drainBatchScan fills c three rows at a time, so the cursor resumes
// mid-block, and returns the rows it emitted.
func drainBatchScan(c *BatchScan, kinds ...types.Kind) [][]types.Value {
	out := make([]*vec.Col, len(kinds))
	for i, k := range kinds {
		out[i] = vec.NewCol(k)
	}
	n := 0
	for more := true; more; {
		var filled int
		filled, more = c.Fill(out, 3)
		n += filled
	}
	got := make([][]types.Value, n)
	for i := range got {
		for _, col := range out {
			got[i] = append(got[i], col.Value(i))
		}
	}
	return got
}

func r(id int64, city string) []types.Value {
	if city == "" {
		return []types.Value{types.Int(id), types.Null}
	}
	return []types.Value{types.Int(id), types.Str(city)}
}

func TestSinglePartValuesAndLookup(t *testing.T) {
	s := buildChain(t, testSchema(), rows(
		r(1, "Los Gatos"), r(2, "Daily City"), r(3, "Los Gatos"), r(4, ""),
	))
	if s.NumRows() != 4 || s.NumParts() != 1 {
		t.Fatalf("rows=%d parts=%d", s.NumRows(), s.NumParts())
	}
	if got := s.Value(Loc{0, 0}, 1); got.S != "Los Gatos" {
		t.Errorf("Value(0,0,city) = %v", got)
	}
	if got := s.Value(Loc{0, 3}, 1); !got.IsNull() {
		t.Errorf("NULL cell = %v", got)
	}
	locs := s.PointLookup(1, types.Str("Los Gatos"))
	if len(locs) != 2 || locs[0].Pos != 0 || locs[1].Pos != 2 {
		t.Errorf("PointLookup = %v", locs)
	}
	// Key column uses the inverted index.
	locs = s.PointLookup(0, types.Int(2))
	if len(locs) != 1 || locs[0].Pos != 1 {
		t.Errorf("key lookup = %v", locs)
	}
	if got := s.PointLookup(1, types.Str("Berlin")); got != nil {
		t.Errorf("missing value lookup = %v", got)
	}
}

func TestChainCodeContinuationFig10(t *testing.T) {
	// Passive main: Campbell, Daily City, Los Gatos, San Jose.
	// Active main adds Los Angeles and San Francisco; repeats of
	// passive values must reference passive codes.
	s := buildChain(t, testSchema(),
		rows(r(1, "Campbell"), r(2, "Daily City"), r(3, "Los Gatos"), r(4, "San Jose")),
		rows(r(5, "Los Angeles"), r(6, "Campbell"), r(7, "San Francisco"), r(8, "Los Gatos")),
	)
	if s.NumParts() != 2 {
		t.Fatalf("parts = %d", s.NumParts())
	}
	p1 := s.Parts()[1]
	// Active dictionary holds only the two new cities and continues
	// the code space at n.
	if p1.Dict(1).Len() != 2 {
		t.Fatalf("active dict has %d entries", p1.Dict(1).Len())
	}
	if p1.CodeOffset(1) != 4 {
		t.Errorf("active offset = %d, want 4", p1.CodeOffset(1))
	}
	// Row 6 (Campbell, pos 1 of part 1) must reference passive code 0.
	if code := p1.Values(1).Get(1); code != 0 {
		t.Errorf("active row references code %d, want passive 0", code)
	}
	// Point query for a passive value finds hits in both parts.
	locs := s.PointLookup(1, types.Str("Campbell"))
	if len(locs) != 2 || locs[0] != (Loc{0, 0}) || locs[1] != (Loc{1, 1}) {
		t.Errorf("Campbell locs = %v", locs)
	}
	// Point query for an active-only value scans only the active part.
	locs = s.PointLookup(1, types.Str("San Francisco"))
	if len(locs) != 1 || locs[0] != (Loc{1, 2}) {
		t.Errorf("San Francisco locs = %v", locs)
	}
}

// TestRangeQueryAcrossChain runs Fig. 10's range query over a main
// split into a passive and an active part on the batch scan, the read
// path every query takes: the range is resolved to a code interval in
// each part's dictionary, and the active part matches both its own
// interval and the passive one its value index still references.
func TestRangeQueryAcrossChain(t *testing.T) {
	s := buildChain(t, testSchema(),
		rows(r(1, "Campbell"), r(2, "Daily City"), r(3, "Los Gatos"), r(4, "San Jose")),
		rows(r(5, "Los Angeles"), r(6, "Campbell"), r(7, "San Francisco"), r(8, "Los Gatos")),
	)
	ids := func(lo, hi types.Value, loInc, hiInc bool) string {
		c := s.NewBatchScan([]int{0}, NewTombstones(), genesisTS, 0)
		c.FilterRange(1, lo, hi, loInc, hiInc)
		return fmt.Sprint(drainBatchScan(c, types.KindInt64))
	}
	// Range C% .. L%: Campbell(1), Daily City(2), Los Gatos(3), then
	// Los Angeles(5), Campbell(6), Los Gatos(8) from the active part.
	if got := ids(types.Str("C"), types.Str("M"), true, false); got != "[[1] [2] [3] [5] [6] [8]]" {
		t.Errorf("range rows = %s", got)
	}
	// A range hitting only the active dictionary.
	if got := ids(types.Str("San A"), types.Str("San G"), true, true); got != "[[7]]" {
		t.Errorf("active-only range = %s", got)
	}
	// A range hitting only the passive dictionary (San Jose is not in
	// the active one, and no active row references it).
	if got := ids(types.Str("San J"), types.Str("San K"), true, true); got != "[[4]]" {
		t.Errorf("passive-only range = %s", got)
	}
	// An empty range.
	if got := ids(types.Str("Z"), types.Null, true, true); got != "[]" {
		t.Errorf("empty range = %s", got)
	}
}

func TestResolveCodeAndCardinality(t *testing.T) {
	s := buildChain(t, testSchema(),
		rows(r(1, "a"), r(2, "c")),
		rows(r(3, "b"), r(4, "a")),
	)
	if got := s.Cardinality(1); got != 3 {
		t.Fatalf("Cardinality = %d", got)
	}
	// Global codes: part0 {a:0, c:1}, part1 {b:2}.
	for code, want := range map[uint32]string{0: "a", 1: "c", 2: "b"} {
		if got := s.ResolveCode(1, code); got.S != want {
			t.Errorf("ResolveCode(%d) = %v, want %s", code, got, want)
		}
	}
	g := s.GlobalDict(1)
	if g.Len() != 3 || g.At(0).S != "a" || g.At(1).S != "b" || g.At(2).S != "c" {
		t.Errorf("GlobalDict has %d entries", g.Len())
	}
}

func TestVisibilityWithTombstones(t *testing.T) {
	m := mvcc.NewManager()
	s := buildChain(t, testSchema(), rows(r(1, "a"), r(2, "b")))
	tomb := NewTombstones()
	snap := m.LastCommitted()

	if !s.Visible(Loc{0, 0}, tomb, snap, 0) {
		t.Fatal("fresh row invisible")
	}
	// Claim a delete.
	tx := m.Begin(mvcc.TxnSnapshot)
	st, ok := tomb.Claim(s.RowID(Loc{0, 0}), s.CreateTS(Loc{0, 0}), tx.Marker())
	if !ok {
		t.Fatal("claim failed")
	}
	tx.RecordDelete(st)
	s.MarkDeleted(Loc{0, 0})

	// Pending delete: still visible to others, invisible to deleter.
	if !s.Visible(Loc{0, 0}, tomb, snap, 0) {
		t.Error("pending delete hid row from others")
	}
	if s.Visible(Loc{0, 0}, tomb, tx.ReadTS(), tx.Marker()) {
		t.Error("deleter still sees row")
	}
	tx.Commit()
	if s.Visible(Loc{0, 0}, tomb, m.LastCommitted(), 0) {
		t.Error("committed delete still visible")
	}
	// Old snapshot still sees it (time travel within MVCC window).
	if !s.Visible(Loc{0, 0}, tomb, snap, 0) {
		t.Error("old snapshot lost the row")
	}

	// Write-write conflict on the same row.
	tx2 := m.Begin(mvcc.TxnSnapshot)
	if _, ok := tomb.Claim(s.RowID(Loc{0, 0}), s.CreateTS(Loc{0, 0}), tx2.Marker()); ok {
		t.Error("second claim should conflict")
	}
	tx2.Abort()
}

func TestScanVisible(t *testing.T) {
	s := buildChain(t, testSchema(),
		rows(r(1, "a"), r(2, "b")),
		rows(r(3, "c")),
	)
	tomb := NewTombstones()
	var ids []types.RowID
	s.ScanVisible(tomb, genesisTS, 0, func(l Loc) bool {
		ids = append(ids, s.RowID(l))
		return true
	})
	if len(ids) != 3 {
		t.Fatalf("scan = %v", ids)
	}
	n := 0
	s.ScanVisible(tomb, genesisTS, 0, func(Loc) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop scanned %d", n)
	}
}

func TestTombstonesRegistry(t *testing.T) {
	tomb := NewTombstones()
	if tomb.Get(7) != nil || tomb.Len() != 0 {
		t.Fatal("empty registry misbehaves")
	}
	st, ok := tomb.Claim(7, 5, 1<<63|9)
	if !ok || tomb.Len() != 1 {
		t.Fatal("claim failed")
	}
	if tomb.Get(7) != st {
		t.Error("Get returned different stamp")
	}
	// Adopt and forget.
	other := mvcc.NewStamp(3)
	tomb.Adopt(8, other)
	if tomb.Get(8) != other {
		t.Error("Adopt lost stamp")
	}
	tomb.Forget(7, 8)
	if tomb.Len() != 0 {
		t.Error("Forget left entries")
	}
}

func TestRestorePartRoundtrip(t *testing.T) {
	schema := testSchema()
	orig := buildChain(t, schema, rows(r(1, "x"), r(2, "y"), r(3, "")))
	p := orig.Parts()[0]
	ncols := len(schema.Columns)
	codes := make([][]uint32, ncols)
	nulls := make([][]uint64, ncols)
	var rowIDs []types.RowID
	var createTS []uint64
	for pos := 0; pos < p.NumRows(); pos++ {
		rowIDs = append(rowIDs, p.RowID(pos))
		createTS = append(createTS, p.CreateTS(pos))
	}
	dicts := make([]*dict.Sorted, ncols)
	offsets := make([]uint32, ncols)
	indexed := make([]bool, ncols)
	indexed[0] = true
	for ci := 0; ci < ncols; ci++ {
		dicts[ci] = p.Dict(ci)
		offsets[ci] = p.CodeOffset(ci)
		codes[ci] = make([]uint32, p.NumRows())
		for pos := 0; pos < p.NumRows(); pos++ {
			codes[ci][pos] = p.Values(ci).Get(pos)
			if p.IsNull(pos, ci) {
				w := pos / 64
				for w >= len(nulls[ci]) {
					nulls[ci] = append(nulls[ci], 0)
				}
				nulls[ci][w] |= 1 << (pos % 64)
			}
		}
	}
	rp, err := RestorePart(schema, dicts, offsets, indexed, codes, nulls, rowIDs, createTS, true)
	if err != nil {
		t.Fatal(err)
	}
	rs := NewStore(schema, rp)
	for pos := 0; pos < p.NumRows(); pos++ {
		for ci := 0; ci < ncols; ci++ {
			a, b := orig.Value(Loc{0, pos}, ci), rs.Value(Loc{0, pos}, ci)
			if a.IsNull() != b.IsNull() || (!a.IsNull() && !types.Equal(a, b)) {
				t.Errorf("(%d,%d): %v vs %v", pos, ci, a, b)
			}
		}
	}
	if err := rs.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNewStoreRejectsBadOffsets(t *testing.T) {
	schema := testSchema()
	s := buildChain(t, schema, rows(r(1, "a")))
	p := s.Parts()[0]
	defer func() {
		if recover() == nil {
			t.Error("duplicate part offsets should panic")
		}
	}()
	NewStore(schema, p, p) // second part reuses offset 0
}

func TestEmptyStore(t *testing.T) {
	s := EmptyStore(testSchema())
	if s.NumRows() != 0 || s.NumParts() != 0 {
		t.Fatal("empty store not empty")
	}
	if got := s.PointLookup(1, types.Str("x")); got != nil {
		t.Errorf("lookup on empty = %v", got)
	}
	c := s.NewBatchScan([]int{0}, NewTombstones(), genesisTS, 0)
	c.FilterRange(0, types.Int(0), types.Int(9), true, true)
	if got := drainBatchScan(c, types.KindInt64); len(got) != 0 {
		t.Errorf("range on empty = %v", got)
	}
	if s.GlobalDict(0).Len() != 0 {
		t.Error("global dict of empty store")
	}
}
