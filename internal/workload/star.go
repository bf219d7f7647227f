package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/types"
)

// Star-schema workload: a sales fact table with customer and product
// dimensions and a date key — the star-join scenario the OLAP operators are
// optimized for (§2.2).

// CustomerSchema is the customer dimension.
func CustomerSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "cust_id", Kind: types.KindInt64},
		{Name: "name", Kind: types.KindString},
		{Name: "region", Kind: types.KindString},
		{Name: "segment", Kind: types.KindString},
	}, 0)
}

// ProductSchema is the product dimension.
func ProductSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "prod_id", Kind: types.KindInt64},
		{Name: "name", Kind: types.KindString},
		{Name: "category", Kind: types.KindString},
	}, 0)
}

// SalesSchema is the fact table.
func SalesSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "sale_id", Kind: types.KindInt64},
		{Name: "cust_id", Kind: types.KindInt64},
		{Name: "prod_id", Kind: types.KindInt64},
		{Name: "date_id", Kind: types.KindInt64},
		{Name: "quantity", Kind: types.KindInt64},
		{Name: "revenue", Kind: types.KindFloat64},
	}, 0)
}

// Segments and Categories are dimension domains.
var (
	Segments   = []string{"enterprise", "midmarket", "consumer"}
	Categories = []string{"hardware", "software", "services", "support"}
)

// StarGen generates a coherent star schema.
type StarGen struct {
	rng                        *rand.Rand
	Customers, Products, Dates int
	nextSale                   int64
}

// NewStarGen returns a seeded star-schema generator.
func NewStarGen(seed int64, customers, products, dates int) *StarGen {
	return &StarGen{
		rng: rand.New(rand.NewSource(seed)), Customers: customers,
		Products: products, Dates: dates,
	}
}

// CustomerRows generates the customer dimension.
func (g *StarGen) CustomerRows() [][]types.Value {
	out := make([][]types.Value, g.Customers)
	for i := range out {
		out[i] = []types.Value{
			types.Int(int64(i + 1)),
			types.Str(fmt.Sprintf("Customer-%05d", i+1)),
			types.Str(Regions[i%len(Regions)]),
			types.Str(Segments[g.rng.Intn(len(Segments))]),
		}
	}
	return out
}

// ProductRows generates the product dimension.
func (g *StarGen) ProductRows() [][]types.Value {
	out := make([][]types.Value, g.Products)
	for i := range out {
		out[i] = []types.Value{
			types.Int(int64(i + 1)),
			types.Str(fmt.Sprintf("Product-%04d", i+1)),
			types.Str(Categories[g.rng.Intn(len(Categories))]),
		}
	}
	return out
}

// SaleRows generates n fact rows with Zipf-ish customer skew.
func (g *StarGen) SaleRows(n int) [][]types.Value {
	out := make([][]types.Value, n)
	for i := range out {
		g.nextSale++
		out[i] = []types.Value{
			types.Int(g.nextSale),
			types.Int(int64(1 + g.rng.Intn(g.Customers))),
			types.Int(int64(1 + g.rng.Intn(g.Products))),
			types.Int(int64(1 + g.rng.Intn(g.Dates))),
			types.Int(int64(1 + g.rng.Intn(10))),
			types.Float(float64(g.rng.Intn(500000)) / 100),
		}
	}
	return out
}
