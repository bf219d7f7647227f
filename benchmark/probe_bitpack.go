package main

import (
	"math/rand"

	"repro/internal/bitpack"
)

// probeBitpack times the three kernels a main-store scan spends its
// time in, on one million 17-bit codes: block decode, the code-range
// scan of a sorted-dictionary predicate, and the membership scan of an
// unsorted-dictionary predicate. Both scans select a tenth of the
// codes, like q_filter.
func probeBitpack(e *probeEnv) error {
	const cardinality = 100_000
	n := e.r.cfg.scaled(1_000_000)
	rng := rand.New(rand.NewSource(e.d.seed))
	v := bitpack.New(cardinality)
	for i := 0; i < n; i++ {
		v.Append(uint32(rng.Intn(cardinality)))
	}
	out := make([]uint32, 1024)
	decode := medianOf(5, func() {
		for start := 0; start < n; start += len(out) {
			v.DecodeBlock(start, out)
		}
	})
	e.m["bitpack.decode_codes_per_s"] = perSecond(n, decode)

	sel := make([]int32, 0, n)
	ivs := []bitpack.Interval{{Lo: cardinality * 35 / 100, Hi: cardinality * 45 / 100}}
	intervals := medianOf(5, func() { sel = v.ScanIntervalsSel(ivs, 0, n, sel[:0]) })
	e.m["bitpack.scan_intervals_codes_per_s"] = perSecond(n, intervals)

	allow := make([]bool, cardinality)
	for c := range allow {
		allow[c] = c%10 == 0
	}
	member := medianOf(5, func() { sel = v.ScanMemberSel(allow, 0, n, sel[:0]) })
	e.m["bitpack.scan_member_codes_per_s"] = perSecond(n, member)
	return nil
}
