package main

import (
	"fmt"
	"time"
)

// traced is the traced run: it yields every per-layer metric. The
// workload's main phase runs twice on fresh copies of the loaded
// directory — once as in the measured run, once with Options.Obs set
// and the benchmark's span recorder on — then the ladder and the
// probes run. The run's seconds are split evenly between the two
// windows; the ladder and the probes do fixed work on top.
func (r *runner) traced() (*result, error) {
	res := newResult()
	m := res.metrics
	base := r.newDir("base")
	if _, err := loadDir(base, r.d, r.shape()); err != nil {
		return nil, err
	}
	window := time.Duration(r.cfg.seconds / 4 * float64(time.Second))

	plain, _, err := r.window(base, false, window, res)
	if err != nil {
		return nil, err
	}
	tw, tracers, err := r.window(base, true, window, res)
	if err != nil {
		return nil, err
	}
	m["obs.overhead_ratio"] = (tw.oltpRate + tw.olapRate) / (plain.oltpRate + plain.olapRate)
	res.spans = summarizeSpans(tracers)
	if res.tracePath, err = writeTrace(r.cfg.outDir, r.def.name, tracers); err != nil {
		return nil, err
	}

	// Counter deltas over the traced window.
	p, st := tw.prom, tw.statsDelta
	ops, _ := tw.rec.totals()
	m["wal.appends"] = p["hana_wal_appends_total"]
	m["wal.syncs"] = p["hana_wal_syncs_total"]
	m["wal.bytes_per_user_byte"] = ratio(p["hana_wal_append_bytes_total"], float64(tw.bytesWritten))
	m["merge.l1_count"] = st["l1merges"]
	m["merge.main_count"] = st["mainmerges"]
	m["merge.failures"] = st["mergefailures"]
	m["merge.busy_s"] = p["hana_l1_merge_seconds_sum"] + p["hana_main_merge_seconds_sum.total"]
	m["merge.rows_rewritten_per_row_written"] = ratio(p["hana_main_merge_rows_total"], float64(tw.rowsWritten))
	m["core.throttled_writes"] = st["throttled"]
	m["core.rejected_writes"] = st["rejected"]
	m["core.admission_delay_s"] = p["hana_write_admission_delay_seconds_sum"]
	m["core.delta_rows_at_end"] = tw.statsEnd["l1"] + tw.statsEnd["l2"] + tw.statsEnd["frozen"]
	m["core.stall_share.write"] = stallShare(tw.rec)
	m["mvcc.write_conflicts"] = float64(tw.conflicts)
	m["client.bytes_per_op"] = ratio(float64(tw.netBytes), float64(ops))
	m["client.reconnects"], m["client.retries"] = tw.reconnects, tw.retries

	ladder, err := r.runLadder(m)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	res.notes = append(res.notes, ladder...)
	if err := r.runProbes(m); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	// The redo log's busy time is not a counter the engine keeps
	// (flushes without fsync are not metered), so it is the window's
	// appends and commits priced with the probes' per-call costs.
	m["wal.busy_s"] = (m["wal.appends"]*m["wal.append_ns"] + float64(tw.rowsWritten)*m["wal.sync_us"]*1e3) / 1e9
	return res, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// stallShare is the share of writes slower than ten times their
// class's median: the foreground stalls merges and latch hand-offs
// cause, which a median hides.
func stallShare(rec *recorder) float64 {
	var stalled, total float64
	for _, c := range writeClasses {
		s := rec.pool(c)
		if med, _ := s.percentile(0.5); len(s) > 0 {
			stalled += s.shareAbove(10*med) * float64(len(s))
			total += float64(len(s))
		}
	}
	return ratio(stalled, total)
}

// tracedWindow is a phaseResult plus what only a traced window reads.
type tracedWindow struct {
	*phaseResult
	reconnects, retries float64
}

// window runs the workload's main phase for dur on a fresh copy of
// the loaded directory. With trace set the database carries a metrics
// registry and every client a span recorder.
func (r *runner) window(base string, trace bool, dur time.Duration, res *result) (*tracedWindow, []*spanRec, error) {
	dir := r.newDir("window")
	if err := copyDir(base, dir); err != nil {
		return nil, nil, err
	}
	sys, err := r.open(dir, trace)
	if err != nil {
		return nil, nil, err
	}
	defer sys.close()
	c, err := r.newCrew(sys)
	if err != nil {
		return nil, nil, err
	}
	p := r.mainPhase()
	var tracers []*spanRec
	if trace {
		if err := probeDecodeCache(sys, c.sessions[0], res.metrics); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		for i := 0; i < p.writers+p.analysts; i++ {
			tracers = append(tracers, newSpanRec(i, start))
		}
	}
	ph, err := r.runPhase(sys, c, p, dur, tracers)
	if err != nil {
		return nil, nil, err
	}
	a, f := ph.rec.totals()
	res.attempted += a
	res.failed += f
	for _, s := range c.sessions {
		s.trace(nil)
	}
	if err := r.verifyEndState(sys, c.sessions[0], oracleOf(c.writers)); err != nil || f > 0 {
		res.correct = false
		res.notes = append(res.notes, fmt.Sprintf("window (trace=%v): %d failed, end state: %v", trace, f, err))
	}
	tw := &tracedWindow{phaseResult: ph}
	rc, rt := sys.transport()
	tw.reconnects, tw.retries = float64(rc), float64(rt)
	return tw, tracers, sys.close()
}

// mainPhase is the phase the workload exists for: the one with the
// largest share of the run.
func (r *runner) mainPhase() phase {
	best := r.def.phases[0]
	for _, p := range r.def.phases[1:] {
		if p.share > best.share {
			best = p
		}
	}
	return best
}
