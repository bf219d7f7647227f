package workload

import (
	"fmt"
	"testing"
)

func TestOrderGenDeterministic(t *testing.T) {
	a := NewOrderGen(7, 1000, 100).Rows(50)
	b := NewOrderGen(7, 1000, 100).Rows(50)
	for i := range a {
		if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
			t.Fatalf("row %d differs across same-seed runs", i)
		}
	}
	c := NewOrderGen(8, 1000, 100).Rows(50)
	same := true
	for i := range a {
		if fmt.Sprint(a[i]) != fmt.Sprint(c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestOrderRowsValid(t *testing.T) {
	g := NewOrderGen(1, 500, 50)
	schema := OrderSchema()
	prev := int64(0)
	for _, row := range g.Rows(200) {
		if err := schema.CheckRow(row); err != nil {
			t.Fatal(err)
		}
		if row[0].I <= prev {
			t.Fatal("ids not strictly ascending")
		}
		prev = row[0].I
	}
}

func TestOrderZipfSkew(t *testing.T) {
	g := NewOrderGen(3, 1000, 50)
	counts := map[string]int{}
	for _, row := range g.Rows(5000) {
		counts[row[1].S]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	// A Zipf(1.2) head must dominate a uniform share (5000/1000 = 5).
	if max < 100 {
		t.Errorf("hottest customer has %d orders; distribution not skewed", max)
	}
}

func TestStarGenCoherent(t *testing.T) {
	g := NewStarGen(11, 50, 20, 30)
	custs := g.CustomerRows()
	prods := g.ProductRows()
	sales := g.SaleRows(500)
	if len(custs) != 50 || len(prods) != 20 {
		t.Fatal("dimension sizes wrong")
	}
	if err := CustomerSchema().CheckRow(custs[0]); err != nil {
		t.Fatal(err)
	}
	if err := ProductSchema().CheckRow(prods[0]); err != nil {
		t.Fatal(err)
	}
	schema := SalesSchema()
	for _, s := range sales {
		if err := schema.CheckRow(s); err != nil {
			t.Fatal(err)
		}
		if s[1].I < 1 || s[1].I > 50 || s[2].I < 1 || s[2].I > 20 || s[3].I < 1 || s[3].I > 30 {
			t.Fatalf("dangling foreign key in %v", s)
		}
	}
	// Sale ids continue across calls.
	more := g.SaleRows(5)
	if more[0][0].I != 501 {
		t.Errorf("sale ids restarted: %v", more[0][0])
	}
}
