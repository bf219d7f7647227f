package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// maxStoredSpans caps the spans one client keeps for the trace file;
// a native client finishes several hundred thousand spans a second, so
// the file holds the head of the traced window while the per-name
// totals below cover all of it.
const maxStoredSpans = 50_000

// span is one timed call the driver made into a layer. Spans of one
// operation share Op; Parent is the enclosing span's ID (-1 for the
// operation's root span).
type span struct {
	Name   string `json:"name"`
	Client int    `json:"client"`
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanTotal accumulates every finished span of one name.
type spanTotal struct {
	count int64
	total time.Duration // wall time inside the span
	self  time.Duration // total minus the time its child spans cover
}

type openSpan struct {
	name     string
	id       int
	start    time.Time
	children time.Duration
}

// spanRec is one client's span recorder. A nil *spanRec records
// nothing, so the untraced runs pay one nil check per call site.
type spanRec struct {
	client int
	base   time.Time
	op     int64
	nextID int
	stack  []openSpan
	stored []span
	totals map[string]*spanTotal
}

func newSpanRec(client int, base time.Time) *spanRec {
	return &spanRec{client: client, base: base, totals: map[string]*spanTotal{},
		stored: make([]span, 0, maxStoredSpans)}
}

// beginOp opens the root span of a new operation.
func (t *spanRec) beginOp(name string) {
	if t == nil {
		return
	}
	t.op++
	t.begin(name)
}

// begin opens a child of the innermost open span.
func (t *spanRec) begin(name string) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, openSpan{name: name, id: t.nextID, start: time.Now()})
	t.nextID++
}

// end closes the innermost open span.
func (t *spanRec) end() {
	if t == nil {
		return
	}
	now := time.Now()
	s := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now.Sub(s.start)
	parent := -1
	if n := len(t.stack); n > 0 {
		t.stack[n-1].children += d
		parent = t.stack[n-1].id
	}
	tot := t.totals[s.name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[s.name] = tot
	}
	tot.count++
	tot.total += d
	tot.self += d - s.children
	if len(t.stored) < maxStoredSpans {
		t.stored = append(t.stored, span{Name: s.name, Client: t.client, Op: t.op, ID: s.id,
			Parent: parent, Start: int64(s.start.Sub(t.base)), End: int64(now.Sub(t.base))})
	}
}

// spanSummary is the per-name roll-up of every client's spans.
type spanSummary struct {
	Name          string  `json:"name"`
	Count         int64   `json:"count"`
	TotalSeconds  float64 `json:"total_s"`
	SelfSeconds   float64 `json:"self_s"`
	MeanSelfMicro float64 `json:"mean_self_us"`
}

func summarizeSpans(recs []*spanRec) []spanSummary {
	all := map[string]*spanTotal{}
	for _, r := range recs {
		if r == nil {
			continue
		}
		for name, t := range r.totals {
			a := all[name]
			if a == nil {
				a = &spanTotal{}
				all[name] = a
			}
			a.count += t.count
			a.total += t.total
			a.self += t.self
		}
	}
	out := make([]spanSummary, 0, len(all))
	for name, t := range all {
		out = append(out, spanSummary{Name: name, Count: t.count,
			TotalSeconds: t.total.Seconds(), SelfSeconds: t.self.Seconds(),
			MeanSelfMicro: t.self.Seconds() * 1e6 / float64(t.count)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfSeconds > out[b].SelfSeconds })
	return out
}

// writeTrace writes the stored spans and the per-name summary to
// <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, recs []*spanRec) (string, error) {
	var spans []span
	for _, r := range recs {
		if r != nil {
			spans = append(spans, r.stored...)
		}
	}
	doc := struct {
		Workload string        `json:"workload"`
		Summary  []spanSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}{workload, summarizeSpans(recs), spans}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	buf, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}
