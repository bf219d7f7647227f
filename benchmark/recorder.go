package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the value is one scheduler hiccup, not a
// property of the system.
const minBeyond = 10

// recorder keeps one client's latencies as exact samples, one slice
// per op class, preallocated so the measured loop never grows them in
// the common case. Each client owns its recorder; they are merged once
// the clients have stopped.
type recorder struct {
	samples   [numClasses][]int64 // nanoseconds
	attempted [numClasses]int
	failed    [numClasses]int
}

func newRecorder(capPerClass int) *recorder {
	r := &recorder{}
	for c := range r.samples {
		r.samples[c] = make([]int64, 0, capPerClass)
	}
	return r
}

// observe records one completed op; a failed op counts as attempted
// and failed and contributes no latency sample.
func (r *recorder) observe(c class, d time.Duration, err error) {
	r.attempted[c]++
	if err != nil {
		r.failed[c]++
		return
	}
	r.samples[c] = append(r.samples[c], int64(d))
}

// reset drops everything recorded so far (end of warm-up).
func (r *recorder) reset() {
	for c := range r.samples {
		r.samples[c] = r.samples[c][:0]
	}
	r.attempted = [numClasses]int{}
	r.failed = [numClasses]int{}
}

// merged pools several recorders' samples per class.
func merged(rs ...*recorder) *recorder {
	out := &recorder{}
	for _, r := range rs {
		for c := range r.samples {
			out.samples[c] = append(out.samples[c], r.samples[c]...)
			out.attempted[c] += r.attempted[c]
			out.failed[c] += r.failed[c]
		}
	}
	return out
}

func (r *recorder) totals() (attempted, failed int) {
	for c := range r.attempted {
		attempted += r.attempted[c]
		failed += r.failed[c]
	}
	return attempted, failed
}

// pool returns the sorted concatenation of the given classes' samples.
func (r *recorder) pool(classes ...class) sorted {
	var n int
	for _, c := range classes {
		n += len(r.samples[c])
	}
	out := make([]int64, 0, n)
	for _, c := range classes {
		out = append(out, r.samples[c]...)
	}
	slices.Sort(out)
	return out
}

// sorted is an ascending sample set.
type sorted []int64

// percentile returns the nearest-rank q-quantile (0 < q < 1) in
// nanoseconds. ok is false when fewer than minBeyond samples lie
// beyond the returned one; the median needs only one sample.
func (s sorted) percentile(q float64) (ns int64, ok bool) {
	if len(s) == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	beyond := len(s) - 1 - rank
	return s[rank], q <= 0.5 || beyond >= minBeyond
}

// mean returns the arithmetic mean in nanoseconds (0 for no samples).
func (s sorted) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return sum / float64(len(s))
}

// shareAbove returns the fraction of samples above limit.
func (s sorted) shareAbove(limit int64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := sort.Search(len(s), func(i int) bool { return s[i] > limit })
	return float64(len(s)-i) / float64(len(s))
}
