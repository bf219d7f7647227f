// Package workload provides the deterministic synthetic workloads the
// experiments run: an order-entry OLTP mix standing in for the ERP
// workloads the paper targets ("thousands of concurrent users and
// transactions with high update load and very selective point
// queries", §1), a star-schema analytical workload for the OLAP side,
// and Zipfian key distributions. Substituted for proprietary SAP ERP
// traces per DESIGN.md §2; all generators are seeded and reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/types"
)

// OrderSchema is the order-entry table: the paper's transactional
// entity. Columns: id (PK), customer, product, region, status,
// quantity, amount.
func OrderSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "id", Kind: types.KindInt64},
		{Name: "customer", Kind: types.KindString},
		{Name: "product", Kind: types.KindString},
		{Name: "region", Kind: types.KindString},
		{Name: "status", Kind: types.KindString},
		{Name: "quantity", Kind: types.KindInt64},
		{Name: "amount", Kind: types.KindFloat64},
	}, 0)
}

// Regions are the low-cardinality region domain.
var Regions = []string{"EMEA", "AMER", "APJ", "MEE", "GCN"}

// Statuses model an order's life (dominant value "open" exercises
// sparse coding).
var Statuses = []string{"open", "paid", "shipped", "returned"}

// OrderGen deterministically generates order rows and OLTP operations.
type OrderGen struct {
	rng       *rand.Rand
	zipf      *rand.Zipf
	Customers int
	Products  int
	nextID    int64
}

// NewOrderGen returns a generator with the given seed and domain
// sizes.
func NewOrderGen(seed int64, customers, products int) *OrderGen {
	rng := rand.New(rand.NewSource(seed))
	return &OrderGen{
		rng:       rng,
		zipf:      rand.NewZipf(rng, 1.2, 1, uint64(customers-1)),
		Customers: customers,
		Products:  products,
	}
}

// Row generates the next order row (ascending ids, Zipfian customers,
// uniform products, skewed status).
func (g *OrderGen) Row() []types.Value {
	g.nextID++
	status := "open"
	if g.rng.Intn(100) < 15 {
		status = Statuses[1+g.rng.Intn(3)]
	}
	return []types.Value{
		types.Int(g.nextID),
		types.Str(fmt.Sprintf("C%06d", g.zipf.Uint64())),
		types.Str(fmt.Sprintf("P%05d", g.rng.Intn(g.Products))),
		types.Str(Regions[g.rng.Intn(len(Regions))]),
		types.Str(status),
		types.Int(int64(1 + g.rng.Intn(20))),
		types.Float(float64(g.rng.Intn(100000)) / 100),
	}
}

// Rows generates n rows.
func (g *OrderGen) Rows(n int) [][]types.Value {
	out := make([][]types.Value, n)
	for i := range out {
		out[i] = g.Row()
	}
	return out
}
