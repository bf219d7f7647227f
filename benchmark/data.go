package main

import (
	"fmt"
	"math/rand"

	hana "repro"
	"repro/internal/workload"
)

// class is an operation class: the four ERP transaction kinds and the
// four analytic query classes. Every latency is recorded per class.
type class int

const (
	clsPoint class = iota
	clsInsert
	clsUpdate
	clsDelete
	clsGroupLow
	clsGroupHigh
	clsFilter
	clsJoin
	numClasses
)

var classNames = [numClasses]string{
	"point", "insert", "update", "delete",
	"q_group_low", "q_group_high", "q_filter", "q_join",
}

func (c class) String() string { return classNames[c] }

var (
	oltpClasses  = []class{clsPoint, clsInsert, clsUpdate, clsDelete}
	writeClasses = []class{clsInsert, clsUpdate, clsDelete}
	olapClasses  = []class{clsGroupLow, clsGroupHigh, clsFilter, clsJoin}
)

// Order-table column ordinals (workload.OrderSchema).
const (
	colID = iota
	colCustomer
	colProduct
	colRegion
	colStatus
	colQuantity
	colAmount
)

// Customer-dimension column ordinals (customerSchema).
const (
	custID = iota
	custName
	custRegion
	custSegment
)

const (
	numProducts = 1000
	// amountSteps quarter-unit amounts: every amount is k/4, so sums are
	// exact in float64 whatever order a parallel scan adds them in, and
	// query answers compare with ==.
	amountSteps = 100_000
	amountMax   = float64(amountSteps) / 4
	// filterWidth is the q_filter range width: a tenth of the amount
	// domain wherever the seeded lower bound lands.
	filterWidth = amountMax / 10
)

// customerSchema is the customer dimension q_join joins against. Its
// key is the same "C%06d" string the order table's customer column
// holds (workload.CustomerSchema keys on an integer, which the order
// table cannot join to).
func customerSchema() *hana.Schema {
	return hana.MustSchema([]hana.Column{
		{Name: "cust_id", Kind: hana.String},
		{Name: "name", Kind: hana.String},
		{Name: "region", Kind: hana.String},
		{Name: "segment", Kind: hana.String},
	}, custID)
}

// rowGen generates order payloads. Customers are uniform over the
// domain (workload.OrderGen's are Zipfian, which would leave the
// customer column far below the decode cache's 65 536-value cap this
// benchmark wants it to exceed).
type rowGen struct {
	rng       *rand.Rand
	customers int
}

func newRowGen(seed int64, customers int) *rowGen {
	return &rowGen{rng: rand.New(rand.NewSource(seed)), customers: customers}
}

func (g *rowGen) row(id int64) []hana.Value {
	status := workload.Statuses[0]
	if g.rng.Intn(100) < 15 {
		status = workload.Statuses[1+g.rng.Intn(len(workload.Statuses)-1)]
	}
	return []hana.Value{
		hana.Int(id),
		hana.Str(fmt.Sprintf("C%06d", g.rng.Intn(g.customers))),
		hana.Str(fmt.Sprintf("P%05d", g.rng.Intn(numProducts))),
		hana.Str(workload.Regions[g.rng.Intn(len(workload.Regions))]),
		hana.Str(status),
		hana.Int(int64(1 + g.rng.Intn(20))),
		hana.Float(float64(g.rng.Intn(amountSteps)) / 4),
	}
}

// dataset is everything a run is built from; it is a pure function of
// (seed, sizes).
type dataset struct {
	seed      int64
	orders    [][]hana.Value // ids 1..len
	customers [][]hana.Value
	segmentOf map[string]string // cust_id → segment
	userBytes int64             // raw bytes of the order rows
}

func genDataset(seed int64, nOrders, nCustomers int) *dataset {
	d := &dataset{seed: seed, segmentOf: make(map[string]string, nCustomers)}
	g := newRowGen(seed, nCustomers)
	d.orders = make([][]hana.Value, nOrders)
	for i := range d.orders {
		d.orders[i] = g.row(int64(i + 1))
		d.userBytes += rowBytes(d.orders[i])
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	d.customers = make([][]hana.Value, nCustomers)
	for i := range d.customers {
		id := fmt.Sprintf("C%06d", i)
		seg := workload.Segments[rng.Intn(len(workload.Segments))]
		d.segmentOf[id] = seg
		d.customers[i] = []hana.Value{
			hana.Str(id),
			hana.Str(fmt.Sprintf("Customer-%06d", i)),
			hana.Str(workload.Regions[i%len(workload.Regions)]),
			hana.Str(seg),
		}
	}
	return d
}

// rowBytes is the raw size of a row: 8 bytes per number, the byte
// length of each string.
func rowBytes(row []hana.Value) int64 {
	var n int64
	for _, v := range row {
		if v.Kind == hana.String {
			n += int64(len(v.S))
		} else {
			n += 8
		}
	}
	return n
}

// groups is a query answer in comparable form: group key ("" for an
// ungrouped aggregate) → the aggregate columns.
type groups map[string][]float64

func (g groups) equal(o groups) bool {
	if len(g) != len(o) {
		return false
	}
	for k, a := range g {
		b, ok := o[k]
		if !ok || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// answer computes a query class's expected result over rows in plain
// Go — the oracle the engine's answers are compared with. lo and hi
// only matter for q_filter.
func (d *dataset) answer(c class, rows func(func([]hana.Value)), lo, hi float64) groups {
	out := groups{}
	add := func(key string, vals ...float64) {
		acc := out[key]
		if acc == nil {
			acc = make([]float64, len(vals))
			out[key] = acc
		}
		for i, v := range vals {
			acc[i] += v
		}
	}
	rows(func(r []hana.Value) {
		switch c {
		case clsGroupLow:
			add(r[colRegion].S, 1, float64(r[colQuantity].I), r[colAmount].F)
		case clsGroupHigh:
			add(r[colCustomer].S, 1, r[colAmount].F)
		case clsFilter:
			if a := r[colAmount].F; a >= lo && a <= hi {
				add("", 1, a)
			}
		case clsJoin:
			add(d.segmentOf[r[colCustomer].S], 1, r[colAmount].F)
		}
	})
	return out
}

// preloaded iterates the generated order rows.
func (d *dataset) preloaded(fn func([]hana.Value)) {
	for _, r := range d.orders {
		fn(r)
	}
}
