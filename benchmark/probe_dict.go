package main

import (
	"fmt"
	"sort"

	hana "repro"
	"repro/internal/dict"
)

// probeDict times the dictionary operations under every point read
// and write: a sorted (main) dictionary lookup, an unsorted (delta)
// dictionary get-or-add, and the dictionary merge of a main merge.
func probeDict(e *probeEnv) error {
	n := e.r.cfg.scaled(probeRows)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("C%06d", i*2) // even ids in main
	}
	sort.Strings(names)
	vals := make([]hana.Value, n)
	for i, s := range names {
		vals[i] = hana.Str(s)
	}
	sorted := dict.NewSortedFromValues(hana.String, vals)
	var miss int
	lookup := perCall(4*n, func(i int) {
		if _, ok := sorted.Lookup(vals[(i*7919)%n]); !ok {
			miss++
		}
	})
	if miss != 0 {
		return fmt.Errorf("%d sorted-dictionary lookups missed", miss)
	}
	e.m["dict.sorted_lookup_ns"] = float64(lookup.Nanoseconds())

	// Half the values are new to the delta dictionary, half repeat.
	probe := make([]hana.Value, n)
	for i := range probe {
		probe[i] = hana.Str(fmt.Sprintf("C%06d", (i%(n/2))*4+1))
	}
	unsorted := dict.NewUnsorted(hana.String)
	e.m["dict.unsorted_getoradd_ns"] = float64(perCall(n, func(i int) { unsorted.GetOrAdd(probe[i]) }).Nanoseconds())

	merge := medianOf(3, func() { dict.Merge(sorted, unsorted) })
	e.m["dict.merge_values_per_s"] = perSecond(sorted.Len()+unsorted.Len(), merge)
	return nil
}
