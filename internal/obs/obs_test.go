package obs

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("hana_test_total", L("table", "t"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels resolves to the same instance.
	if r.Counter("hana_test_total", L("table", "t")) != c {
		t.Fatalf("counter lookup not stable")
	}
	// A different label set is a different instance.
	if r.Counter("hana_test_total", L("table", "u")) == c {
		t.Fatalf("label sets collided")
	}
	g := r.Gauge("hana_test_gauge")
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Fatalf("gauge = %v, want 0.75", got)
	}
}

func TestDisabledNilSafety(t *testing.T) {
	var nilReg *Registry
	for _, r := range []*Registry{Disabled, nilReg, {}} {
		c := r.Counter("x")
		c.Inc() // must not panic
		if c.Value() != 0 {
			t.Fatalf("disabled counter counted")
		}
		h := r.Histogram("y")
		h.Observe(time.Millisecond)
		h.Stop(h.Start())
		if h.Snapshot().Count != 0 {
			t.Fatalf("disabled histogram counted")
		}
		r.Gauge("z").Set(1)
		r.Trace(Event{Kind: EvSavepoint})
		if ev := r.Events(10); ev != nil {
			t.Fatalf("disabled tracer returned events: %v", ev)
		}
		if r.Snapshot() != nil {
			t.Fatalf("disabled snapshot non-nil")
		}
		var sb strings.Builder
		if err := r.WriteProm(&sb); err != nil || sb.Len() != 0 {
			t.Fatalf("disabled WriteProm wrote %q (err %v)", sb.String(), err)
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0}, {1, 0}, {255, 0}, {256, 0},
		{257, 1}, {512, 1}, {513, 2},
		{time.Duration(1) << 35, histBuckets - 1}, // beyond the last bound
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every bucket's upper bound must land in its own bucket and one
	// nanosecond more in the next.
	for i := 0; i < histBuckets-1; i++ {
		b := bucketBound(i)
		if got := bucketOf(b); got != i {
			t.Errorf("bucketOf(bound %d) = %d, want %d", b, got, i)
		}
		if got := bucketOf(b + 1); got != i+1 {
			t.Errorf("bucketOf(bound+1 %d) = %d, want %d", b+1, got, i+1)
		}
	}
}

// TestHistogramInvariants is the regression test for the percentile
// machinery: for random observation sets, p50 ≤ p95 ≤ p99 ≤ max and
// the bucket counts sum to the total count.
func TestHistogramInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		h := &Histogram{}
		n := 1 + rng.Intn(2000)
		var maxObs time.Duration
		for i := 0; i < n; i++ {
			// Spread observations across the full bucket range.
			d := time.Duration(rng.Int63n(int64(10 * time.Second)))
			if rng.Intn(4) == 0 {
				d = time.Duration(rng.Int63n(int64(2 * time.Microsecond)))
			}
			if d > maxObs {
				maxObs = d
			}
			h.Observe(d)
		}
		s := h.Snapshot()
		if s.Count != uint64(n) {
			t.Fatalf("trial %d: count = %d, want %d", trial, s.Count, n)
		}
		var sum uint64
		for _, b := range s.Buckets {
			sum += b
		}
		if sum != s.Count {
			t.Fatalf("trial %d: bucket sum %d != count %d", trial, sum, s.Count)
		}
		if s.P50 > s.P95 || s.P95 > s.P99 {
			t.Fatalf("trial %d: percentiles not monotone: p50=%v p95=%v p99=%v", trial, s.P50, s.P95, s.P99)
		}
		if s.P99 > s.Max {
			t.Fatalf("trial %d: p99 %v > max %v", trial, s.P99, s.Max)
		}
		if s.Max != maxObs {
			t.Fatalf("trial %d: max = %v, want %v", trial, s.Max, maxObs)
		}
	}
}

func TestHistogramPercentileValues(t *testing.T) {
	h := &Histogram{}
	// 100 observations of 1µs: every percentile is the 1µs bucket bound.
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond)
	}
	s := h.Snapshot()
	// The bucket bound (1.024µs) exceeds the observed max, so the
	// percentile clamps to the max: 1µs exactly.
	if want := time.Microsecond; s.P50 != want || s.P99 != want {
		t.Fatalf("p50=%v p99=%v, want %v", s.P50, s.P99, want)
	}
	if s.Sum != 100*time.Microsecond {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestTracerRing(t *testing.T) {
	r := NewSized(4)
	for i := 0; i < 10; i++ {
		r.Trace(Event{Kind: EvL1Merge, Rows: i})
	}
	ev := r.Events(0)
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.Rows != 6+i {
			t.Fatalf("event %d rows = %d, want %d (oldest-first order)", i, e.Rows, 6+i)
		}
		if e.Seq != uint64(7+i) {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, 7+i)
		}
		if e.Time.IsZero() {
			t.Fatalf("event %d missing timestamp", i)
		}
	}
	if got := r.Events(2); len(got) != 2 || got[1].Rows != 9 {
		t.Fatalf("Events(2) = %+v", got)
	}
	if r.tracer.seq != 10 {
		t.Fatalf("trace seq = %d", r.tracer.seq)
	}
}

func TestWritePromFormat(t *testing.T) {
	r := New()
	r.Counter("hana_rows_total", L("table", "orders")).Add(42)
	r.Gauge("hana_util", L("table", "orders")).Set(0.5)
	h := r.Histogram("hana_lat_seconds", L("table", "orders"))
	h.Observe(time.Microsecond)
	h.Observe(time.Millisecond)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE hana_rows_total counter",
		`hana_rows_total{table="orders"} 42`,
		"# TYPE hana_util gauge",
		`hana_util{table="orders"} 0.5`,
		"# TYPE hana_lat_seconds histogram",
		`hana_lat_seconds_count{table="orders"} 2`,
		`le="+Inf"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The +Inf bucket must carry the full cumulative count.
	if !strings.Contains(out, `le="+Inf"} 2`) {
		t.Fatalf("+Inf bucket not cumulative:\n%s", out)
	}

	// Table filtering keeps only matching series.
	r.Counter("hana_rows_total", L("table", "other")).Add(7)
	sb.Reset()
	if err := r.WritePromTable(&sb, "orders"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "other") {
		t.Fatalf("table filter leaked: %s", sb.String())
	}
}

func TestSnapshot(t *testing.T) {
	r := New()
	r.Counter("b_total").Add(3)
	r.Histogram("a_seconds", L("table", "x")).Observe(time.Millisecond)
	snaps := r.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots", len(snaps))
	}
	// Sorted by name.
	if snaps[0].Name != "a_seconds" || snaps[1].Name != "b_total" {
		t.Fatalf("order: %s, %s", snaps[0].Name, snaps[1].Name)
	}
	if snaps[0].Hist == nil || snaps[0].Hist.Count != 1 {
		t.Fatalf("histogram snapshot: %+v", snaps[0].Hist)
	}
	if snaps[0].Label("table") != "x" || snaps[0].Label("nope") != "" {
		t.Fatalf("labels: %+v", snaps[0].Labels)
	}
	if snaps[1].Value != 3 {
		t.Fatalf("counter value: %v", snaps[1].Value)
	}
}

// TestConcurrentRegistry hammers one registry from many goroutines —
// handle creation, observation, tracing, and snapshotting at once —
// and relies on -race to catch unsynchronized access.
func TestConcurrentRegistry(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	const perG = 5000
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tbl := []string{"a", "b"}[g%2]
			for i := 0; i < perG; i++ {
				r.Counter("hana_ops_total", L("table", tbl)).Inc()
				r.Histogram("hana_lat_seconds", L("table", tbl)).Observe(time.Duration(i) * time.Nanosecond)
				if i%8 == 0 {
					r.Trace(Event{Kind: EvL1Merge, Table: tbl, Rows: i})
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
		r.Snapshot()
		r.Events(100)
	}
	wg.Wait()
	total := r.Counter("hana_ops_total", L("table", "a")).Value() +
		r.Counter("hana_ops_total", L("table", "b")).Value()
	if total != 4*perG {
		t.Fatalf("recorded %d ops, want %d", total, 4*perG)
	}
}
