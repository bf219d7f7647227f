package bench

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
)

// transportReporter is the optional Target facet wire targets
// implement: cumulative reconnect and command-retry counts across
// every client the run opened.
type transportReporter interface {
	Transport() (reconnects, retries uint64)
}

// Run executes one mixed-workload run: setup + preload, a warmup
// phase all writers finish before the clock starts, a measured phase,
// then quiesce and (optionally) the oracle differential. Per-op-class
// latency lands in obs histograms; the returned Result carries the
// percentile snapshots, throughputs, engine lifecycle counters, and
// the host context.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	scenario := New(cfg)
	tgt, err := NewTarget(cfg)
	if err != nil {
		return nil, err
	}
	defer tgt.Close()
	if err := scenario.Setup(tgt); err != nil {
		return nil, fmt.Errorf("bench: setup: %w", err)
	}

	// Latency histograms: one per op class, shared by all routines
	// (obs histograms are lock-free atomics).
	reg := obs.New()
	var hists [numClasses]*obs.Histogram
	var okOps, errOps, xportOps [numClasses]atomic.Uint64
	for c := OpClass(0); c < numClasses; c++ {
		hists[c] = reg.Histogram("bench_op_seconds", obs.L("op", c.String()))
	}

	// Phase machinery: writers run WarmupOps unrecorded, rendezvous at
	// the barrier, then the measured window runs until every writer
	// finishes its MeasureOps and every analyst has recorded one
	// measured op (under load a single scan can outlast the writers'
	// whole measured phase). Analysts free-run and record only while
	// `measuring` is set and `done` is not.
	var (
		warmupWG  sync.WaitGroup // writers still in warmup
		writersWG sync.WaitGroup
		analystWG sync.WaitGroup
		firstOps  sync.WaitGroup // analysts yet to record a measured op
		measuring atomic.Bool
		done      atomic.Bool

		errMu  sync.Mutex
		runErr error
	)
	fatal := func(err error) {
		errMu.Lock()
		if runErr == nil {
			runErr = err
		}
		errMu.Unlock()
		done.Store(true) // analysts stop against a broken target
	}

	// Sessions and routine state are created up front, on the driver
	// goroutine (the yabf InitRoutine contract), so routine start is
	// just a goroutine launch.
	type runClient struct {
		sess Session
		r    Routine
	}
	var sessions []Session
	closeSessions := func() {
		for _, s := range sessions {
			s.Close()
		}
	}
	writers := make([]runClient, cfg.Writers)
	for w := range writers {
		sess, err := tgt.Session()
		if err != nil {
			closeSessions()
			return nil, fmt.Errorf("bench: writer session: %w", err)
		}
		sessions = append(sessions, sess)
		writers[w] = runClient{sess: sess, r: scenario.NewWriter(w)}
	}
	analysts := make([]runClient, cfg.Analysts)
	for a := range analysts {
		sess, err := tgt.Session()
		if err != nil {
			closeSessions()
			return nil, fmt.Errorf("bench: analyst session: %w", err)
		}
		sessions = append(sessions, sess)
		analysts[a] = runClient{sess: sess, r: scenario.NewAnalyst(a)}
	}

	warmupWG.Add(cfg.Writers)
	barrier := make(chan struct{}) // closed when all writers left warmup
	var measureStart time.Time
	go func() {
		warmupWG.Wait()
		measureStart = now() // happens-before the barrier close
		measuring.Store(true)
		close(barrier)
	}()

	exec := func(sess Session, op *Op) error {
		switch op.Class {
		case ClassInsert:
			return sess.Insert(op.Row)
		case ClassUpdate:
			return sess.Update(op.Key, op.Row)
		case ClassDelete:
			return sess.Delete(op.Key)
		case ClassPoint:
			_, err := sess.Point(op.Key)
			return err
		case ClassScanAgg:
			_, err := sess.ScanAgg()
			return err
		default:
			return fmt.Errorf("bench: unknown op class %v", op.Class)
		}
	}

	start := now()
	for _, cl := range writers {
		writersWG.Add(1)
		go func(cl runClient) {
			defer writersWG.Done()
			inWarmup := true
			leaveWarmup := func() {
				if inWarmup {
					inWarmup = false
					warmupWG.Done()
				}
			}
			defer leaveWarmup() // a fatal exit must not strand the barrier
			total := cfg.WarmupOps + cfg.MeasureOps
			for n := 0; n < total; n++ {
				if n == cfg.WarmupOps {
					leaveWarmup()
					<-barrier
				}
				op := cl.r.NextOp()
				if op == nil {
					return
				}
				t0 := now()
				err := exec(cl.sess, op)
				d := time.Since(t0)
				cl.r.Observe(op, err)
				if n >= cfg.WarmupOps {
					if err != nil {
						errOps[op.Class].Add(1)
						if errors.Is(err, client.ErrTransport) {
							xportOps[op.Class].Add(1)
						}
					} else {
						okOps[op.Class].Add(1)
						hists[op.Class].Observe(d)
					}
				} else if err != nil && cfg.OverloadRows == 0 && !errors.Is(err, client.ErrTransport) {
					// Warmup failures with admission control off are real
					// bugs, not load shedding — except connection loss,
					// which is the network's fault, not the engine's: it
					// is recorded per class instead of aborting the run.
					fatal(fmt.Errorf("bench: warmup %s: %w", op.Class, err))
					return
				} else if err != nil && errors.Is(err, client.ErrTransport) {
					xportOps[op.Class].Add(1)
				}
			}
		}(cl)
	}

	firstOps.Add(len(analysts))
	for _, cl := range analysts {
		analystWG.Add(1)
		go func(cl runClient) {
			defer analystWG.Done()
			// An analyst that exits (a failed run, an exhausted
			// routine) releases the window too.
			recorded := false
			defer func() {
				if !recorded {
					firstOps.Done()
				}
			}()
			for !done.Load() {
				op := cl.r.NextOp()
				if op == nil {
					return
				}
				t0 := now()
				err := exec(cl.sess, op)
				d := time.Since(t0)
				cl.r.Observe(op, err)
				if !measuring.Load() || done.Load() {
					if err != nil && errors.Is(err, client.ErrTransport) {
						xportOps[op.Class].Add(1)
					}
					continue
				}
				if err != nil {
					errOps[op.Class].Add(1)
					if errors.Is(err, client.ErrTransport) {
						xportOps[op.Class].Add(1)
					}
				} else {
					okOps[op.Class].Add(1)
					hists[op.Class].Observe(d)
				}
				if !recorded {
					recorded = true
					firstOps.Done()
				}
			}
		}(cl)
	}

	writersWG.Wait()
	firstOps.Wait()
	measureEnd := now()
	done.Store(true)
	analystWG.Wait()
	wall := now().Sub(start)
	closeSessions()

	errMu.Lock()
	err = runErr
	errMu.Unlock()
	if err != nil {
		return nil, err
	}
	if !measuring.Load() {
		// Every writer died before leaving warmup without reporting a
		// fatal error: impossible by construction, but never divide by
		// a window that was not measured.
		measureStart = start
	}

	res := &Result{
		Scenario: scenario.Name(),
		Config:   cfg,
		Wire:     cfg.Addr != "",
		Wall:     wall,
		Measure:  measureEnd.Sub(measureStart),
		Classes:  map[string]*ClassStats{},
	}
	window := res.Measure.Seconds()
	for c := OpClass(0); c < numClasses; c++ {
		ok, errs := okOps[c].Load(), errOps[c].Load()
		if ok == 0 && errs == 0 && xportOps[c].Load() == 0 {
			continue
		}
		snap := hists[c].Snapshot()
		cs := &ClassStats{Ops: ok, Errors: errs, TransportErrors: xportOps[c].Load()}
		if window > 0 {
			cs.Throughput = float64(ok) / window
		}
		cs.P50 = snap.P50
		cs.P95 = snap.P95
		cs.P99 = snap.P99
		cs.Max = snap.Max
		if snap.Count > 0 {
			cs.Mean = snap.Sum / time.Duration(snap.Count)
		}
		res.Classes[c.String()] = cs
	}
	if res.Engine, err = tgt.Stats(); err != nil {
		return nil, fmt.Errorf("bench: stats: %w", err)
	}
	if tr, ok := tgt.(transportReporter); ok {
		res.Reconnects, res.Retries = tr.Transport()
	}

	if cfg.Verify {
		checked, err := scenario.Verify(tgt)
		if err != nil {
			return nil, err
		}
		res.VerifiedFacts = checked
	}
	return res, nil
}
