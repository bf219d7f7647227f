package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mvcc"
	"repro/internal/types"
)

// buildMixedTable spreads rows with NULLs and deletes across all
// three stages (including a split main) so every aggregation path is
// exercised.
func buildMixedTable(t testing.TB) (*core.Database, *core.Table, int) {
	t.Helper()
	db, err := core.OpenDatabase(core.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tab, err := db.CreateTable(core.TableConfig{
		Name: "t",
		Schema: types.MustSchema([]types.Column{
			{Name: "id", Kind: types.KindInt64},
			{Name: "region", Kind: types.KindString, Nullable: true},
			{Name: "qty", Kind: types.KindInt64, Nullable: true},
			{Name: "price", Kind: types.KindFloat64},
		}, 0),
		Strategy: core.MergePartial, ActiveMainMax: 40,
		Compress: true, CompactDicts: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	regions := []string{"EMEA", "APJ", "AMER"}
	id := int64(0)
	insert := func(n int) {
		tx := db.Begin(mvcc.TxnSnapshot)
		for i := 0; i < n; i++ {
			id++
			region := types.Null
			if rng.Intn(10) > 0 {
				region = types.Str(regions[rng.Intn(3)])
			}
			qty := types.Null
			if rng.Intn(10) > 0 {
				qty = types.Int(int64(rng.Intn(100)))
			}
			row := []types.Value{types.Int(id), region, qty, types.Float(float64(rng.Intn(1000)) / 4)}
			if _, err := tab.Insert(tx, row); err != nil {
				t.Fatal(err)
			}
		}
		db.Commit(tx)
	}
	insert(60)
	tab.MergeL1()
	tab.MergeMain() // part 1
	insert(30)
	tab.MergeL1()
	tab.MergeMain() // part 2 (partial)
	insert(25)
	tab.MergeL1() // L2 rows
	insert(15)    // L1 rows
	// Deletes sprinkled everywhere.
	for i := 0; i < 12; i++ {
		tx := db.Begin(mvcc.TxnSnapshot)
		tab.DeleteKey(tx, types.Int(1+rng.Int63n(id)))
		db.Commit(tx)
	}
	return db, tab, int(id)
}

// TestTableAggregatePathsAgree runs the same aggregation through the
// vectorized numeric kernel, the code-grouped path, and the generic
// BatchHashAggregate over a full scan, and requires identical results.
func TestTableAggregatePathsAgree(t *testing.T) {
	_, tab, _ := buildMixedTable(t)

	aggs := []Agg{
		{Func: AggCount},
		{Func: AggSum, Col: 2},
		{Func: AggSum, Col: 3},
		{Func: AggAvg, Col: 3},
	}
	// Path 1: fused (numeric kernel — Count/Sum/Avg only).
	fused := &TableAggregate{Table: tab, Group: 1, Aggs: aggs}
	gotFused, err := CollectBatches(fused)
	if err != nil {
		t.Fatal(err)
	}
	// Path 2: generic hash aggregate over the streaming scan.
	generic := &BatchHashAggregate{In: &BatchTableScan{Table: tab}, GroupBy: []int{1}, Aggs: aggs}
	gotGeneric, err := CollectBatches(generic)
	if err != nil {
		t.Fatal(err)
	}
	compareGroups(t, "fused-vs-generic", gotFused, gotGeneric)

	// Path 3: Min/Max force the code-grouped (non-kernel) path.
	aggsMM := []Agg{{Func: AggCount}, {Func: AggMin, Col: 2}, {Func: AggMax, Col: 3}}
	fusedMM := &TableAggregate{Table: tab, Group: 1, Aggs: aggsMM}
	gotMM, err := CollectBatches(fusedMM)
	if err != nil {
		t.Fatal(err)
	}
	genericMM := &BatchHashAggregate{In: &BatchTableScan{Table: tab}, GroupBy: []int{1}, Aggs: aggsMM}
	wantMM, err := CollectBatches(genericMM)
	if err != nil {
		t.Fatal(err)
	}
	compareGroups(t, "minmax", gotMM, wantMM)
}

func compareGroups(t *testing.T, label string, got, want [][]types.Value) {
	t.Helper()
	key := func(rows [][]types.Value) map[string]string {
		m := map[string]string{}
		for _, r := range rows {
			m[r[0].String()+"/"+fmt.Sprint(r[0].IsNull())] = fmt.Sprintf("%v", r[1:])
		}
		return m
	}
	g, w := key(got), key(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d groups vs %d\n got: %v\nwant: %v", label, len(g), len(w), got, want)
	}
	for k, v := range w {
		if g[k] != v {
			t.Fatalf("%s: group %s: got %s, want %s", label, k, g[k], v)
		}
	}
}
