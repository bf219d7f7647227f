package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	hana "repro"
	"repro/internal/workload"
)

// The ERP transaction mix, in percent; the remainder is point reads.
const (
	insertPct = 20
	updatePct = 25
	deletePct = 5
)

var errWrongAnswer = errors.New("benchmark: wrong answer")

// opSpanNames are the root span names, one per class.
var opSpanNames = func() (names [numClasses]string) {
	for c := range names {
		names[c] = "op." + class(c).String()
	}
	return names
}()

// oltpClient is one closed-loop ERP session: it issues its next
// operation only after the previous one has been answered. Clients own
// disjoint key sets (ids congruent to the client number), so each one
// knows the exact expected content of every row it touches and the
// union of the clients' books is the table's expected end state.
type oltpClient struct {
	id, stride int64
	rng        *rand.Rand
	gen        *rowGen
	hot        workload.KeyChooser // Zipfian rank → index into live
	live       []int64             // this client's live keys
	rows       map[int64][]hana.Value
	nextID     int64
	rec        *recorder
	tr         *spanRec
	conflicts  int
	// rowsWritten and bytesWritten tally the rows this client inserted
	// or updated and their raw size: the user data behind the write
	// amplification ratios.
	rowsWritten, bytesWritten int64
}

func newOLTPClients(d *dataset, n int) []*oltpClient {
	out := make([]*oltpClient, n)
	for i := range out {
		c := &oltpClient{
			id: int64(i), stride: int64(n),
			rng:  rand.New(rand.NewSource(d.seed*131 + int64(i) + 1)),
			gen:  newRowGen(d.seed*257+int64(i)+1, len(d.customers)),
			rows: make(map[int64][]hana.Value, len(d.orders)/n*2),
			rec:  newRecorder(1 << 16),
		}
		for _, r := range d.orders {
			if id := r[colID].I; id%c.stride == c.id {
				c.live = append(c.live, id)
				c.rows[id] = r
			}
		}
		c.hot = workload.NewZipfian(d.seed*17+int64(i)+1, uint64(len(c.live)), workload.DefaultZipfS)
		c.nextID = int64(len(d.orders)) + 1
		for c.nextID%c.stride != c.id {
			c.nextID++
		}
		out[i] = c
	}
	return out
}

// step issues one operation drawn from the mix and returns when it
// has been answered.
func (c *oltpClient) step(s session) {
	p := c.rng.Intn(100)
	switch {
	case p < insertPct:
		row := c.gen.row(c.nextID)
		c.tr.beginOp(opSpanNames[clsInsert])
		t0 := time.Now()
		err := s.Insert(row)
		d := time.Since(t0)
		c.tr.end()
		c.observe(clsInsert, d, err)
		if err == nil {
			c.live = append(c.live, c.nextID)
			c.rows[c.nextID] = row
			c.rowsWritten++
			c.bytesWritten += rowBytes(row)
		}
		c.nextID += c.stride
	case p < insertPct+updatePct:
		key := c.live[c.rng.Intn(len(c.live))]
		row := c.gen.row(key)
		c.tr.beginOp(opSpanNames[clsUpdate])
		t0 := time.Now()
		err := s.Update(key, row)
		d := time.Since(t0)
		c.tr.end()
		c.observe(clsUpdate, d, err)
		if err == nil {
			c.rows[key] = row
			c.rowsWritten++
			c.bytesWritten += rowBytes(row)
		}
	case p < insertPct+updatePct+deletePct:
		i := c.rng.Intn(len(c.live))
		key := c.live[i]
		c.tr.beginOp(opSpanNames[clsDelete])
		t0 := time.Now()
		err := s.Delete(key)
		d := time.Since(t0)
		c.tr.end()
		c.observe(clsDelete, d, err)
		if err == nil {
			c.live[i] = c.live[len(c.live)-1]
			c.live = c.live[:len(c.live)-1]
			delete(c.rows, key)
		}
	default:
		key := c.live[c.hot.Next()%uint64(len(c.live))]
		c.tr.beginOp(opSpanNames[clsPoint])
		t0 := time.Now()
		amount, err := s.Point(key)
		d := time.Since(t0)
		c.tr.end()
		if err == nil && amount != c.rows[key][colAmount].F {
			err = fmt.Errorf("%w: point %d: amount %v, want %v", errWrongAnswer, key, amount, c.rows[key][colAmount].F)
		}
		c.observe(clsPoint, d, err)
	}
}

func (c *oltpClient) observe(cl class, d time.Duration, err error) {
	if errors.Is(err, hana.ErrWriteConflict) {
		c.conflicts++
	}
	c.rec.observe(cl, d, err)
}

// analyst is one closed-loop reporting session cycling through query
// classes in a fixed order.
type analyst struct {
	rng   *rand.Rand
	cycle []class
	pos   int
	rec   *recorder
	tr    *spanRec
}

func newAnalyst(seed int64, cycle []class) *analyst {
	return &analyst{rng: rand.New(rand.NewSource(seed*7919 + 3)), cycle: cycle, rec: newRecorder(1 << 12)}
}

// filterRange draws q_filter's seeded range: fixed width, so every
// draw selects about a tenth of the rows.
func filterRange(rng *rand.Rand) (lo, hi float64) {
	lo = float64(rng.Intn(amountSteps*9/10)) / 4
	return lo, lo + filterWidth
}

// wantRows is how many result rows a class must return whatever the
// table holds (0 = any positive number): the in-window sanity check,
// cheap enough to run on every answer.
var wantRows = [numClasses]int{
	clsGroupLow: len(workload.Regions),
	clsFilter:   1,
	clsJoin:     len(workload.Segments),
}

func (a *analyst) step(s session) {
	c := a.cycle[a.pos%len(a.cycle)]
	a.pos++
	var lo, hi float64
	if c == clsFilter {
		lo, hi = filterRange(a.rng)
	}
	a.tr.beginOp(opSpanNames[c])
	t0 := time.Now()
	ans, err := s.Query(c, lo, hi)
	d := time.Since(t0)
	a.tr.end()
	if n := ans.len(); err == nil && (n == 0 || (wantRows[c] != 0 && n != wantRows[c])) {
		err = fmt.Errorf("%w: %s returned %d rows", errWrongAnswer, c, n)
	}
	a.rec.observe(c, d, err)
}
