package main

import (
	"context"
	"fmt"
	"time"

	hana "repro"
)

// The ladder executes each operation class single-threaded on one
// seeded data set, loaded identically into an embedded database and a
// server, at four depths:
//
//	wire  client.Do("EXECUTE ...") against the server
//	sql   SQLPrepared.ExecCtx on the embedded engine
//	calc  hana.ExecuteGraph on the hand-built equivalent graph (queries)
//	core  View.Get, Table.Insert+Commit, View.AggregateNumeric, ScanBatches
//
// A layer's self time is its depth's median minus the next depth
// down; what is left of the wire depth after the embedded SQL depth
// and an empty round trip is the server's own work. Nothing else runs
// meanwhile and no merge threshold is reached, so the counts repeat.

// ladderRows is the ladder's and the probes' data size.
const (
	ladderRows      = 100_000
	ladderCustomers = 50_000
)

// ladderClasses are the classes the ladder decomposes, ladderIters
// how often each runs at each depth.
var (
	ladderClasses = []class{clsPoint, clsInsert, clsUpdate, clsDelete, clsGroupLow, clsFilter}
	ladderIters   = [numClasses]int{
		clsPoint: 400, clsInsert: 400, clsUpdate: 400, clsDelete: 400,
		clsGroupLow: 11, clsFilter: 41,
	}
)

func isDML(c class) bool { return c == clsInsert || c == clsUpdate || c == clsDelete }

type depth int

const (
	depthWire depth = iota
	depthSQL
	depthCalc
	depthCore
	numDepths
)

// ladderKeys hands out fresh order ids, so no two writes of the ladder
// ever collide on a key.
type ladderKeys struct{ next int64 }

func (k *ladderKeys) take() int64 {
	k.next++
	return k.next - 1
}

// runLadder fills the ladder's metrics into m and returns the
// human-readable decomposition lines.
func (r *runner) runLadder(m map[string]float64) ([]string, error) {
	d := genDataset(r.cfg.seed, r.cfg.scaled(ladderRows), r.cfg.scaled(ladderCustomers))
	base := r.newDir("ladder")
	if _, err := loadDir(base, d, tableShape{}); err != nil {
		return nil, err
	}
	srvDir := r.newDir("ladder-server")
	if err := copyDir(base, srvDir); err != nil {
		return nil, err
	}
	bin, err := r.cfg.server()
	if err != nil {
		return nil, err
	}
	// The embedded side mirrors what hanaserver opens: scheduler on,
	// metrics registry on.
	emb, err := openSystem(base, systemOptions{path: pathSQL, autoMerge: true, obs: true, seed: r.cfg.seed})
	if err != nil {
		return nil, err
	}
	defer emb.close()
	srv, err := openSystem(srvDir, systemOptions{path: pathWire, seed: r.cfg.seed, serverBin: bin})
	if err != nil {
		return nil, err
	}
	defer srv.close()

	wire, err := srv.session()
	if err != nil {
		return nil, err
	}
	sqlS, err := emb.session()
	if err != nil {
		return nil, err
	}
	sessions := [numDepths]session{depthWire: wire, depthSQL: sqlS, depthCalc: &calcSession{newNativeSession(emb.db)}, depthCore: &coreSession{newNativeSession(emb.db)}}

	gen := newRowGen(r.cfg.seed+99, len(d.customers))
	keys := &ladderKeys{next: int64(len(d.orders)) + 1}
	var med [numClasses][numDepths]float64 // microseconds
	var rtt []float64
	for _, c := range ladderClasses {
		var samples [numDepths][]float64
		// The depths take turns, so slow drift of the machine lands on
		// all of them alike.
		for i, n := 0, max(ladderIters[c]/r.cfg.scale, 3); i < n; i++ {
			for dp, s := range sessions {
				if depth(dp) == depthCalc && isDML(c) {
					continue // DML does not pass through calc
				}
				us, err := ladderOp(s, c, i, d, gen, keys)
				if err != nil {
					return nil, fmt.Errorf("%s at depth %d: %w", c, dp, err)
				}
				samples[dp] = append(samples[dp], us)
			}
			if isDML(c) {
				// An empty round trip — client, loopback, the server's
				// dispatch — in the same ping-pong rhythm as the writes
				// it is subtracted from.
				t0 := time.Now()
				if _, err := srv.ctl.Do("SESSIONS"); err != nil {
					return nil, err
				}
				rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
		for dp := range samples {
			if len(samples[dp]) > 0 {
				med[c][dp] = median(samples[dp])
			}
		}
	}

	m["client.noop_rtt_us"] = median(rtt)

	var notes []string
	for _, c := range ladderClasses {
		w, s, ca, co := med[c][depthWire], med[c][depthSQL], med[c][depthCalc], med[c][depthCore]
		server := w - s - m["client.noop_rtt_us"]
		var sqlSelf, calcSelf float64
		if isDML(c) {
			sqlSelf = s - co
		} else {
			sqlSelf, calcSelf = s-ca, ca-co
		}
		switch c {
		case clsPoint, clsInsert, clsFilter:
			m["hanaserver.self_us."+c.String()] = server
		}
		m["sql.self_us."+c.String()] = sqlSelf
		if c == clsPoint || c == clsGroupLow || c == clsFilter {
			m["calc.self_us."+c.String()] = calcSelf
		}
		sum := m["client.noop_rtt_us"] + server + sqlSelf + calcSelf + co
		notes = append(notes, fmt.Sprintf("ladder %-12s wire %10.1fus = rtt %.1f + server %.1f + sql %.1f + calc %.1f + core %.1f (sum/wire %.3f)",
			c, w, m["client.noop_rtt_us"], server, sqlSelf, calcSelf, co, sum/w))
	}

	// Plan-cache behaviour for unprepared statements: each statement
	// text executed again must hit.
	for i := 0; i < 20; i++ {
		if _, err := emb.eng.ExecCtx(context.Background(), nil, sqlText[clsPoint], hana.Int(int64(1+i))); err != nil {
			return nil, err
		}
	}
	hits, misses, _ := emb.eng.CacheStats()
	m["sql.plan_cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))

	if err := probeRowsExamined(emb, m); err != nil {
		return nil, err
	}
	if err := srv.close(); err != nil {
		return nil, err
	}
	return notes, emb.close()
}

// ladderOp runs class c once through s and returns its latency in
// microseconds. Writes use a fresh key each time; an update or delete
// first inserts the row it then works on, untimed.
func ladderOp(s session, c class, i int, d *dataset, gen *rowGen, keys *ladderKeys) (float64, error) {
	timed := func(fn func() error) (float64, error) {
		t0 := time.Now()
		err := fn()
		return float64(time.Since(t0).Nanoseconds()) / 1e3, err
	}
	switch c {
	case clsPoint:
		key := 1 + int64(i*7919)%int64(len(d.orders))
		return timed(func() error {
			amount, err := s.Point(key)
			if err == nil && amount != d.orders[key-1][colAmount].F {
				err = errWrongAnswer
			}
			return err
		})
	case clsInsert, clsUpdate, clsDelete:
		key := keys.take()
		row := gen.row(key)
		if c == clsInsert {
			return timed(func() error { return s.Insert(row) })
		}
		if err := s.Insert(row); err != nil {
			return 0, err
		}
		if c == clsDelete {
			return timed(func() error { return s.Delete(key) })
		}
		changed := gen.row(key)
		return timed(func() error { return s.Update(key, changed) })
	default:
		lo, hi := amountMax*0.35, amountMax*0.35+filterWidth
		return timed(func() error {
			ans, err := s.Query(c, lo, hi)
			if err == nil && ans.len() == 0 {
				err = errWrongAnswer
			}
			return err
		})
	}
}

// calcSession answers reads through hand-built calc graphs: the calc
// depth. Writes do not exist at this depth.
type calcSession struct{ *nativeSession }

func (s *calcSession) Point(key int64) (float64, error) {
	g := hana.NewGraph()
	root := g.Project(g.Filter(g.Table(s.orders), hana.Cmp{Col: colID, Op: hana.Eq, Val: hana.Int(key)}), colID, colAmount)
	rows, err := hana.ExecuteGraph(g, root, hana.Env{})
	if err != nil {
		return 0, err
	}
	if len(rows) != 1 {
		return 0, errNotFound
	}
	return rows[0][1].F, nil
}

// coreSession answers queries with the storage layer's own scan
// entry points: the core depth. Its point reads and writes are the
// native session's.
type coreSession struct{ *nativeSession }

func (s *coreSession) Query(c class, lo, hi float64) (answerSet, error) {
	v := s.orders.View(nil)
	defer v.Close()
	switch c {
	case clsGroupLow:
		gs, err := v.AggregateNumeric(colRegion, []int{colQuantity, colAmount})
		if err != nil {
			return answerSet{}, err
		}
		rows := make([][]hana.Value, len(gs))
		for i, g := range gs {
			rows[i] = []hana.Value{g.Key, hana.Int(g.Count), hana.Int(g.SumI[0]), hana.Float(g.SumF[1])}
		}
		return answerSet{rows: rows}, nil
	case clsFilter:
		var count int64
		var sum float64
		pred := hana.Between{Col: colAmount, Lo: hana.Float(lo), Hi: hana.Float(hi), LoInc: true, HiInc: true}
		v.ScanBatches([]int{colAmount}, pred, 0, func(b *hana.Batch) bool {
			buf := make([]hana.Value, 1)
			for i := 0; i < b.Rows(); i++ {
				sum += b.RowAt(i, buf)[0].F
			}
			count += int64(b.Rows())
			return true
		})
		return answerSet{rows: [][]hana.Value{{hana.Int(count), hana.Float(sum)}}}, nil
	}
	return answerSet{}, fmt.Errorf("no core-depth form of %s", c)
}
