package engine

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/mvcc"
	"repro/internal/types"
)

// TestBatchRowDifferential runs seeded randomized queries — filters,
// projections, joins, aggregates, AsOf reads — through the batch
// operators and through a reference written right here as plain Go
// loops over View.ScanAll, asserting multiset-identical results (same
// spirit as the torture package's oracle harness). Reproduce a failure
// with BATCHDIFF_SEED=<seed> go test ./internal/engine -run Differential.
func TestBatchRowDifferential(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("BATCHDIFF_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			seed = v
		}
	}
	rng := rand.New(rand.NewSource(seed))

	db, err := core.OpenDatabase(core.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, err := db.CreateTable(core.TableConfig{
		Name: "d",
		Schema: types.MustSchema([]types.Column{
			{Name: "id", Kind: types.KindInt64},
			{Name: "cat", Kind: types.KindString, Nullable: true},
			{Name: "qty", Kind: types.KindInt64},
			{Name: "price", Kind: types.KindFloat64, Nullable: true},
		}, 0),
		Strategy: core.MergePartial, ActiveMainMax: 60,
		Compress: true, CompactDicts: true, Historic: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	cats := []string{"alpha", "beta", "gamma", "delta", "eps"}
	nextID := int64(1)
	insert := func(n int) {
		tx := db.Begin(mvcc.TxnSnapshot)
		for i := 0; i < n; i++ {
			cat := types.Null
			if rng.Intn(10) > 0 {
				cat = types.Str(cats[rng.Intn(len(cats))])
			}
			price := types.Null
			if rng.Intn(10) > 0 {
				price = types.Float(float64(rng.Intn(10000)) / 100)
			}
			row := []types.Value{types.Int(nextID), cat, types.Int(int64(rng.Intn(500))), price}
			nextID++
			if _, err := tab.Insert(tx, row); err != nil {
				t.Fatal(err)
			}
		}
		db.Commit(tx)
	}
	del := func(n int) {
		tx := db.Begin(mvcc.TxnSnapshot)
		for i := 0; i < n; i++ {
			tab.DeleteKey(tx, types.Int(int64(rng.Intn(int(nextID)))+1))
		}
		db.Commit(tx)
	}
	snapAt := db.Manager().LastCommitted

	// Spread rows across every stage: split main chain, frozen and hot
	// L2 rows, L1 rows, with deletes in each region and AsOf snapshots
	// captured between phases.
	var asofs []uint64
	insert(120)
	del(10)
	tab.MergeL1()
	tab.MergeMain()
	asofs = append(asofs, snapAt())
	insert(80)
	del(15)
	tab.MergeL1()
	tab.MergeMain() // second chain part (ActiveMainMax 60)
	asofs = append(asofs, snapAt())
	insert(60)
	tab.MergeL1() // L2 generation
	del(10)
	asofs = append(asofs, snapAt())
	insert(30) // L1 rows
	del(5)

	randVal := func(col int) types.Value {
		switch col {
		case 0:
			return types.Int(int64(rng.Intn(int(nextID)) + 1))
		case 1:
			return types.Str(cats[rng.Intn(len(cats))])
		case 2:
			return types.Int(int64(rng.Intn(500)))
		default:
			return types.Float(float64(rng.Intn(10000)) / 100)
		}
	}
	ops := []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
	var randPred func(depth int) expr.Predicate
	randPred = func(depth int) expr.Predicate {
		switch rng.Intn(7) {
		case 0:
			return nil
		case 1:
			col := rng.Intn(4)
			return expr.Cmp{Col: col, Op: ops[rng.Intn(len(ops))], Val: randVal(col)}
		case 2:
			col := rng.Intn(4)
			lo, hi := randVal(col), randVal(col)
			if types.Compare(hi, lo) < 0 {
				lo, hi = hi, lo
			}
			return expr.Between{Col: col, Lo: lo, Hi: hi, LoInc: rng.Intn(2) == 0, HiInc: rng.Intn(2) == 0}
		case 3:
			return expr.IsNull{Col: []int{1, 3}[rng.Intn(2)], Neg: rng.Intn(2) == 0}
		case 4:
			return expr.Like{Col: 1, Prefix: cats[rng.Intn(len(cats))][:1+rng.Intn(3)]}
		case 5:
			if depth > 1 {
				return nil
			}
			return expr.And{randOrCmp(rng, randPred, depth), randOrCmp(rng, randPred, depth)}
		default:
			if depth > 1 {
				return nil
			}
			return expr.Or{randOrCmp(rng, randPred, depth), randOrCmp(rng, randPred, depth)}
		}
	}

	// Floats render to 10 significant digits: the reference and the
	// scan visit rows in different orders, so float sums may differ in
	// the last ulps.
	render := func(rs [][]types.Value) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			s := ""
			for _, v := range r {
				if v.Kind == types.KindFloat64 && !v.IsNull() {
					s += strconv.FormatFloat(v.F, 'g', 10, 64) + "|"
					continue
				}
				s += v.String() + "|"
			}
			out[i] = s
		}
		sort.Strings(out)
		return out
	}
	// scan is the reference read path: every visible row of the
	// (possibly time-travelling) view that satisfies pred.
	scan := func(asOf uint64, pred expr.Predicate) [][]types.Value {
		v := tab.View(nil)
		if asOf != 0 {
			v = tab.AsOf(asOf)
		}
		defer v.Close()
		var out [][]types.Value
		v.ScanAll(func(_ types.RowID, row []types.Value) bool {
			if pred == nil || pred.Eval(row) {
				out = append(out, types.CloneRow(row))
			}
			return true
		})
		return out
	}
	check := func(q int, desc string, want [][]types.Value, batchIt BatchIterator) {
		t.Helper()
		got, err := CollectBatches(batchIt)
		if err != nil {
			t.Fatalf("seed %d query %d (%s): batch pipeline: %v", seed, q, desc, err)
		}
		g, w := render(got), render(want)
		if !reflect.DeepEqual(g, w) {
			for i := 0; i < len(g) || i < len(w); i++ {
				gl, wl := "<none>", "<none>"
				if i < len(g) {
					gl = g[i]
				}
				if i < len(w) {
					wl = w[i]
				}
				if gl != wl {
					t.Errorf("row %d: batch %q, reference %q", i, gl, wl)
				}
			}
			t.Fatalf("seed %d query %d (%s): batch %d rows != reference %d rows",
				seed, q, desc, len(got), len(want))
		}
	}

	const queries = 300
	for q := 0; q < queries; q++ {
		var asOf uint64
		if rng.Intn(3) == 0 {
			asOf = asofs[rng.Intn(len(asofs))]
		}
		pred := randPred(0)
		var cols []int
		if rng.Intn(2) == 0 {
			perm := rng.Perm(4)
			cols = perm[:1+rng.Intn(4)]
		}
		switch rng.Intn(4) {
		case 0: // plain scan: pushdown + projection + AsOf
			want := scan(asOf, pred)
			if cols != nil {
				for i, row := range want {
					proj := make([]types.Value, len(cols))
					for j, c := range cols {
						proj[j] = row[c]
					}
					want[i] = proj
				}
			}
			check(q, fmt.Sprintf("scan pred=%v cols=%v asof=%d", pred, cols, asOf), want,
				&BatchTableScan{Table: tab, Pred: pred, Cols: cols, AsOf: asOf, BatchSize: 1 + rng.Intn(200)})
		case 1: // scan + post-filter operator (full-width rows)
			post := randPred(1)
			var want [][]types.Value
			for _, row := range scan(asOf, pred) {
				if post == nil || post.Eval(row) {
					want = append(want, row)
				}
			}
			check(q, fmt.Sprintf("filter pred=%v post=%v", pred, post), want,
				&BatchFilter{In: &BatchTableScan{Table: tab, Pred: pred, AsOf: asOf}, Pred: post})
		case 2: // self equi-join on category
			rightPred := expr.Cmp{Col: 2, Op: expr.OpLt, Val: types.Int(50)}
			right := scan(asOf, rightPred)
			var want [][]types.Value
			for _, l := range scan(asOf, pred) {
				for _, r := range right {
					if !l[1].IsNull() && !r[1].IsNull() && types.Equal(l[1], r[1]) {
						want = append(want, append(types.CloneRow(l), r...))
					}
				}
			}
			check(q, fmt.Sprintf("join pred=%v", pred), want,
				&BatchHashJoin{
					Left:    &BatchTableScan{Table: tab, Pred: pred, AsOf: asOf},
					Right:   &BatchTableScan{Table: tab, Pred: rightPred, AsOf: asOf},
					LeftCol: 1, RightCol: 1,
				})
		default: // grouped aggregation, at a batch size that varies by query
			var groupBy []int
			if rng.Intn(4) > 0 {
				groupBy = []int{[]int{1, 2}[rng.Intn(2)]}
			}
			aggs := []Agg{{Func: AggCount}, {Func: AggSum, Col: 2},
				{Func: AggFunc(rng.Intn(5)), Col: []int{0, 2, 3}[rng.Intn(3)]}}
			check(q, fmt.Sprintf("agg pred=%v group=%v aggs=%v asof=%d", pred, groupBy, aggs, asOf),
				refAggregate(scan(asOf, pred), groupBy, aggs),
				&BatchHashAggregate{In: &BatchTableScan{Table: tab, Pred: pred, AsOf: asOf, BatchSize: 1 + q%200},
					GroupBy: groupBy, Aggs: aggs})
		}
	}
}

// refAggregate is the differential's reference grouping: bucket the
// rows by their rendered group key, then fold each aggregate over its
// bucket with the SQL rules spelled out — COUNT counts rows, the
// others skip NULLs, SUM of nothing is 0, MIN/MAX/AVG of nothing are
// NULL, integer SUM stays integer, AVG is always a float.
func refAggregate(in [][]types.Value, groupBy []int, aggs []Agg) [][]types.Value {
	buckets := map[string][][]types.Value{}
	var order []string
	for _, row := range in {
		key := ""
		for _, c := range groupBy {
			key += row[c].String() + "|"
		}
		if _, ok := buckets[key]; !ok {
			order = append(order, key)
		}
		buckets[key] = append(buckets[key], row)
	}
	if len(groupBy) == 0 && len(order) == 0 {
		order = append(order, "") // a global aggregate always yields one row
	}
	var out [][]types.Value
	for _, key := range order {
		rows := buckets[key]
		var res []types.Value
		if len(rows) > 0 {
			for _, c := range groupBy {
				res = append(res, rows[0][c])
			}
		}
		for _, a := range aggs {
			var n int64
			var sumI int64
			var sumF float64
			isF := false
			min, max := types.Null, types.Null
			for _, row := range rows {
				v := row[a.Col]
				if v.IsNull() {
					continue
				}
				n++
				if v.Kind == types.KindFloat64 {
					isF = true
					sumF += v.F
				} else {
					sumI += v.I
				}
				if min.IsNull() || types.Less(v, min) {
					min = v
				}
				if max.IsNull() || types.Less(max, v) {
					max = v
				}
			}
			switch a.Func {
			case AggCount:
				res = append(res, types.Int(int64(len(rows))))
			case AggSum:
				if isF {
					res = append(res, types.Float(sumF))
				} else {
					res = append(res, types.Int(sumI))
				}
			case AggMin:
				res = append(res, min)
			case AggMax:
				res = append(res, max)
			case AggAvg:
				switch {
				case n == 0:
					res = append(res, types.Null)
				case isF:
					res = append(res, types.Float(sumF/float64(n)))
				default:
					res = append(res, types.Float(float64(sumI)/float64(n)))
				}
			}
		}
		out = append(out, res)
	}
	return out
}

// randOrCmp returns a sub-predicate for And/Or composition, replacing
// nil with a concrete comparison so conjunct counts stay stable.
func randOrCmp(rng *rand.Rand, gen func(int) expr.Predicate, depth int) expr.Predicate {
	if p := gen(depth + 1); p != nil {
		return p
	}
	return expr.Cmp{Col: 2, Op: expr.OpGe, Val: types.Int(int64(rng.Intn(500)))}
}
