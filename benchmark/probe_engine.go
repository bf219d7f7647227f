package main

import (
	"fmt"
	"time"

	hana "repro"
)

// probeEngine drives the batch operators directly on main-stage
// tables: input rows per second through a bare table scan, a filter
// that cannot be pushed down, a low-cardinality hash aggregate, and a
// hash join against the customer dimension.
func probeEngine(e *probeEnv) error {
	db, err := hana.Open(hana.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	orders, _, err := e.stagedTable(db, ordersTable, stageMain, hana.TableConfig{Compress: true, CompactDicts: true})
	if err != nil {
		return err
	}
	customers, err := db.CreateTable(customersConfig())
	if err != nil {
		return err
	}
	if err := bulkLoad(db, customers, e.d.customers); err != nil {
		return err
	}
	n := len(e.d.orders)
	scan := func() *hana.BatchTableScan { return &hana.BatchTableScan{Table: orders} }
	drain := func(build func() hana.BatchIterator) (time.Duration, error) {
		var derr error
		d := medianOf(5, func() {
			it := build()
			if err := it.Open(); err != nil {
				derr = err
				return
			}
			defer it.Close()
			for {
				b, err := it.Next()
				if err != nil || b == nil {
					if err != nil {
						derr = err
					}
					return
				}
			}
		})
		return d, derr
	}
	for _, op := range []struct {
		name  string
		build func() hana.BatchIterator
	}{
		{"scan", func() hana.BatchIterator { return scan() }},
		{"filter", func() hana.BatchIterator { return &hana.BatchFilter{In: scan(), Pred: oddQuantity{}} }},
		{"hashagg", func() hana.BatchIterator {
			return &hana.BatchHashAggregate{In: scan(), GroupBy: []int{colRegion},
				Aggs: []hana.Agg{{Func: hana.Count}, {Func: hana.Sum, Col: colAmount}}}
		}},
		{"hashjoin", func() hana.BatchIterator {
			return &hana.BatchHashJoin{Left: scan(), Right: &hana.BatchTableScan{Table: customers}, LeftCol: colCustomer, RightCol: custID}
		}},
	} {
		d, err := drain(op.build)
		if err != nil {
			return fmt.Errorf("%s: %w", op.name, err)
		}
		e.m["engine."+op.name+"_rows_per_s"] = perSecond(n, d)
	}
	return nil
}

// oddQuantity is a predicate the storage stages cannot evaluate on
// dictionary codes, so the filter operator does the work itself.
type oddQuantity struct{}

func (oddQuantity) Eval(row []hana.Value) bool { return row[colQuantity].I%2 == 1 }
func (oddQuantity) String() string             { return "quantity is odd" }
