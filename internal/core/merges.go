package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/dict"
	"repro/internal/l2delta"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/wal"
)

// MergeL1 runs one incremental L1→L2 merge step (§3.1, Fig. 6) under
// the exclusive latch, migrating up to the configured batch of
// settled row versions and truncating the L1-delta. It returns the
// number of rows moved.
func (t *Table) MergeL1() (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mergeL1Locked()
}

// MergeL1IfFull is the scheduler's entry point: the L1MaxRows
// threshold is evaluated under the same latch acquisition as the
// merge itself, so a tick can never act on a stale row count (another
// tick or an explicit MergeL1 may have drained the L1-delta since the
// threshold was last observed).
func (t *Table) MergeL1IfFull() (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.l1.Len() < t.cfg.L1MaxRows {
		return 0, nil
	}
	return t.mergeL1Locked()
}

func (t *Table) mergeL1Locked() (int, error) {
	start := t.met.l1MergeSeconds.Start()
	newL1, moved, dropped := merge.L1ToL2(t.l1, t.l2, t.cfg.L1MergeBatch)
	if moved == 0 && dropped == 0 {
		return 0, nil
	}
	t.met.l1MergeSeconds.Stop(start)
	t.met.l1MergeRows.Add(uint64(moved))
	t.db.obs.Trace(obs.Event{Kind: obs.EvL1Merge, Table: t.cfg.Name, Rows: moved})
	t.l1 = newL1
	t.l1Merges.Add(1)
	seq := t.mergeSeq.Add(1)
	// Data movement is not redo-logged; only the merge event is
	// ("obviously the event of the merge is written to the log",
	// §3.2).
	if err := t.db.logMergeEvent(t.cfg.Name, wal.MergeL1L2, seq); err != nil {
		return moved, err
	}
	return moved, nil
}

// RotateL2IfFull closes the open L2-delta generation and opens a
// fresh one ("as soon as an L2-delta-to-main merge is started, the
// current L2-delta is closed for updates and a new empty L2-delta
// structure is created", §3.1), but only if it still holds at least
// min rows, with the threshold re-evaluated under the exclusive latch.
// This is the race-free form the scheduler uses: checking the
// threshold under a read latch and rotating later can close a
// generation another actor just rotated (now tiny), producing
// needless fragment merges. It reports whether a rotation happened.
func (t *Table) RotateL2IfFull(min int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.l2.Len() < min {
		return false
	}
	return t.rotateL2Locked() != nil
}

func (t *Table) rotateL2Locked() *l2delta.Store {
	if t.l2.Len() == 0 {
		return nil
	}
	closed := t.l2
	closed.Close()
	t.frozen = append(t.frozen, closed)
	t.l2 = l2delta.New(t.cfg.Schema, t.cfg.Indexed)
	t.db.obs.Trace(obs.Event{Kind: obs.EvRotateL2, Table: t.cfg.Name, Rows: closed.Len()})
	return closed
}

// needsMainMerge reports whether the scheduler should dispatch a main
// merge for this table: a frozen generation is queued, or the open
// L2-delta has reached its rotation threshold.
func (t *Table) needsMainMerge() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.frozen) > 0 || t.l2.Len() >= t.cfg.L2MaxRows
}

// MergeMain merges the oldest frozen L2-delta generation (rotating
// the open one first if none is frozen) into the main store using the
// configured strategy. The heavy computation runs outside the latch
// on immutable inputs; only the final structure swap is latched. If
// the merge fails, the frozen generation stays queued and the system
// keeps operating on the new L2-delta (§3.1's failure semantics).
// A merge already in flight (the scheduler's) is waited out first.
//
// It returns the merge statistics, or nil when there was nothing to
// merge.
func (t *Table) MergeMain() (*merge.Stats, error) {
	return t.mergeMain(context.Background(), nil, true)
}

// MergeMainQueuedCtx merges the oldest frozen generation but never
// rotates the open L2-delta: when nothing is frozen it is a no-op,
// and while another merge is in flight it fails without waiting. It
// is the scheduler's entry point, paired with RotateL2IfFull so the
// decision to close a generation is always made on latched state; its
// context cancels on shutdown, so a long merge never delays Close.
func (t *Table) MergeMainQueuedCtx(ctx context.Context) (*merge.Stats, error) {
	return t.mergeMain(ctx, nil, false)
}

// mergeMain lets tests inject a fail point; autoRotate selects
// whether an empty frozen queue may be refilled from the open
// L2-delta regardless of its size (the explicit MergeMain/drain
// behavior) or left alone (the scheduler's queued behavior).
func (t *Table) mergeMain(ctx context.Context, failPoint func(string) error, autoRotate bool) (*merge.Stats, error) {
	if failPoint == nil {
		if fp := t.mergeFail.Load(); fp != nil {
			failPoint = *fp
		}
	}
	// An explicit merge waits out the in-flight one (the scheduler's)
	// and then merges whatever is left; the queued merge skips.
	if autoRotate {
		select {
		case t.mergeSlot <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	} else {
		select {
		case t.mergeSlot <- struct{}{}:
		default:
			return nil, fmt.Errorf("core: merge already in flight on %q", t.cfg.Name)
		}
	}
	defer func() { <-t.mergeSlot }()
	t.mu.Lock()
	if len(t.frozen) == 0 && autoRotate {
		t.rotateL2Locked()
	}
	if len(t.frozen) == 0 {
		t.mu.Unlock()
		return nil, nil
	}
	t.mergeInFlight = true
	t.pendingDeletes = nil
	source := t.frozen[0]
	oldMain := t.main
	t.mu.Unlock()

	// An attempt after a failure is a retry — surfaced in Stats so
	// operators can see the backoff machinery working.
	if t.gate.failing() {
		t.mergeRetries.Add(1)
		t.met.mergeRetries.Inc()
		t.db.obs.Trace(obs.Event{Kind: obs.EvMergeRetry, Table: t.cfg.Name, Rows: source.Len()})
	}
	t.db.obs.Trace(obs.Event{Kind: obs.EvMergeStart, Table: t.cfg.Name, Rows: source.Len()})
	mergeStart := t.met.mergeTotalSeconds.Start()

	watermark := t.db.mgr.Watermark()
	if t.cfg.Historic {
		// History tables never garbage-collect: all versions stay
		// reachable for time travel.
		watermark = 0
	}
	opts := merge.Options{
		Watermark:    watermark,
		Compress:     t.cfg.Compress,
		CompactDicts: t.cfg.CompactDicts,
		Indexed:      t.cfg.indexedFlags(),
		Workers:      t.cfg.MergeWorkers,
		FailPoint:    failPoint,
		Ctx:          ctx,
	}

	var (
		newMain = oldMain
		stats   *merge.Stats
		err     error
	)
	switch t.cfg.Strategy {
	case MergeResort:
		newMain, stats, err = merge.Resort(source, oldMain, t.tombs, opts)
	case MergePartial:
		newPart := false
		if n := oldMain.NumParts(); n > 0 && t.cfg.ActiveMainMax > 0 {
			if active := oldMain.Parts()[n-1]; active.NumRows() >= t.cfg.ActiveMainMax {
				newPart = true // promote the active main to passive
			}
		}
		newMain, stats, err = merge.Partial(source, oldMain, t.tombs, opts, newPart)
	default:
		newMain, stats, err = merge.Classic(source, oldMain, t.tombs, opts)
	}

	t.mu.Lock()
	t.mergeInFlight = false
	if err != nil {
		pending := t.pendingDeletes
		t.pendingDeletes = nil
		_ = pending // old generation keeps its marks; nothing to undo
		t.mu.Unlock()
		t.mergeFailures.Add(1)
		t.met.mergeFailures.Inc()
		msg := err.Error()
		t.lastMergeErr.Store(&msg)
		// Transient conditions (unsettled versions, cancellation) back
		// off without advancing the circuit breaker; real merge
		// failures do both.
		countable := !errors.Is(err, merge.ErrNotSettled) &&
			!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
		opened := t.gate.onFailure(t.db.now(), countable)
		t.db.obs.Trace(obs.Event{Kind: obs.EvMergeFail, Table: t.cfg.Name, Detail: msg})
		t.db.logf("merge-failed", "table", t.cfg.Name, "err", msg)
		if opened {
			t.met.circuitOpen.Set(1)
			t.db.obs.Trace(obs.Event{Kind: obs.EvBreakerOpen, Table: t.cfg.Name, Detail: msg})
			t.db.logf("merge-breaker-open", "table", t.cfg.Name, "err", msg)
		}
		return nil, err
	}
	// Deletes that landed while the merge was computing may have been
	// missed by the collect pass: adopt their stamps into the registry
	// and flag the rows in the new generation. Adoption is idempotent
	// for main-originated deletes (the registry already holds the same
	// stamp) and installs the L2 row stamp for frozen-delta deletes.
	remark := t.pendingDeletes
	t.pendingDeletes = nil
	t.frozen = t.frozen[1:]
	t.main = newMain
	t.mainMerges.Add(1)
	seq := t.mergeSeq.Add(1)
	for _, pd := range remark {
		if newMain.MarkDeletedByRowID(pd.id) {
			t.tombs.Adopt(pd.id, pd.st)
		}
	}
	// Physically dropped rows no longer need tombstones.
	t.tombs.Forget(stats.DroppedRowIDs...)
	logErr := t.db.logMergeEvent(t.cfg.Name, wal.MergeL2Main, seq)
	t.lastMergeErr.Store(nil)
	closed := t.gate.onSuccess()
	t.mu.Unlock()
	t.observeMainMerge(mergeStart, stats, newMain.MemSize())
	if closed {
		t.met.circuitOpen.Set(0)
		t.db.obs.Trace(obs.Event{Kind: obs.EvBreakerClose, Table: t.cfg.Name})
		t.db.logf("merge-breaker-close", "table", t.cfg.Name)
	}
	if logErr != nil {
		return stats, logErr
	}
	return stats, nil
}

// observeMainMerge records a successful L2→main merge's metrics and
// its trace event: total and per-phase durations, rows moved from the
// delta, the rebuilt main's size, and column-pool utilization.
func (t *Table) observeMainMerge(start time.Time, stats *merge.Stats, mainBytes int) {
	if !t.db.obs.Enabled() {
		return
	}
	dur := time.Since(start)
	t.met.mergeTotalSeconds.Observe(dur)
	t.met.mergeCollectSeconds.Observe(stats.CollectDur)
	t.met.mergeColumnSeconds.Observe(stats.ColumnDur)
	t.met.mergeBuildSeconds.Observe(stats.BuildDur)
	t.met.mergeRows.Add(uint64(stats.RowsDelta))
	t.met.mergeBytes.Add(uint64(mainBytes))
	if stats.WorkersUsed > 0 && stats.ColumnDur > 0 {
		util := float64(stats.ColumnBusy) / (float64(stats.ColumnDur) * float64(stats.WorkersUsed))
		t.met.workerUtilization.Set(util)
	}
	t.db.obs.Trace(obs.Event{
		Kind: obs.EvMergeDone, Table: t.cfg.Name,
		Rows: stats.RowsDelta, Dur: dur, Detail: stats.Kind,
	})
}

// GlobalSortedDict exposes the table content of one column as a
// single sorted dictionary: "dictionaries of two delta structures are
// computed (only for L1-delta) and sorted (for both L1-delta and
// L2-delta) and merged with the main dictionary on the fly" (§3.1).
func (t *Table) GlobalSortedDict(col int) *dict.Sorted {
	return t.globalSortedDict(col, nil)
}

// globalSortedDict lets tests inject a mutation between the border
// snapshot and the fold (mirroring mergeMain's fail point). The
// snapshot captures, per L2 generation, the dictionary length
// observed under the latch: the open generation keeps appending
// dictionary codes after the latch is released, and folding up to the
// live d.Len() would leak values committed after the snapshot into
// the merged global dictionary. The fold itself re-acquires the
// shared latch so it never reads a dictionary an appender is growing.
func (t *Table) globalSortedDict(col int, borderHook func()) *dict.Sorted {
	t.mu.RLock()
	l1 := t.l1
	l1Border := l1.Len()
	gens := t.l2Generations()
	dictBorders := make([]int, len(gens))
	for i, g := range gens {
		dictBorders[i] = g.Dict(col).Len()
	}
	main := t.main
	t.mu.RUnlock()

	if borderHook != nil {
		borderHook()
	}

	kind := t.cfg.Schema.Columns[col].Kind
	merged := main.GlobalDict(col)
	deltaVals := dict.NewUnsorted(kind)
	t.mu.RLock()
	// Compute the L1 dictionary on the fly, up to the snapshot border.
	for pos := 0; pos < l1Border; pos++ {
		if v := l1.At(pos).Values[col]; !v.IsNull() {
			deltaVals.GetOrAdd(v)
		}
	}
	// The L2 dictionaries already exist; fold them in, capped at the
	// length each had when the snapshot was taken.
	for gi, g := range gens {
		d := g.Dict(col)
		for c := 0; c < dictBorders[gi]; c++ {
			deltaVals.GetOrAdd(d.At(uint32(c)))
		}
	}
	t.mu.RUnlock()
	res := dict.Merge(merged, deltaVals)
	return res.Dict
}
