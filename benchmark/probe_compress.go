package main

import (
	hana "repro"
)

// probeCompress loads the same rows into main with value-index
// compression on and off: the space it saves (compress.ratio, and
// mainstore.bytes_per_row with it on) against the scan time it costs
// (compress.scan_ratio, a q_filter-shaped range scan).
func probeCompress(e *probeEnv) error {
	db, err := hana.Open(hana.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	pred := hana.Between{Col: colAmount, Lo: hana.Float(amountMax * 0.35), Hi: hana.Float(amountMax*0.35 + filterWidth), LoInc: true, HiInc: true}
	var bytes, scan [2]float64
	for i, on := range []bool{false, true} {
		name := "compress_off"
		if on {
			name = "compress_on"
		}
		t, _, err := e.stagedTable(db, name, stageMain, hana.TableConfig{Compress: on, CompactDicts: true})
		if err != nil {
			return err
		}
		bytes[i] = float64(t.Stats().MainBytes)
		scan[i] = medianOf(probeReps, func() {
			v := t.View(nil)
			v.ScanBatches([]int{colAmount}, pred, 0, func(*hana.Batch) bool { return true })
			v.Close()
		}).Seconds()
	}
	e.m["compress.ratio"] = bytes[0] / bytes[1]
	e.m["compress.scan_ratio"] = scan[1] / scan[0]
	e.m["mainstore.bytes_per_row"] = bytes[1] / float64(len(e.d.orders))
	return nil
}

// probeDecodeCache runs q_group_low and q_group_high once each on the
// workload's own freshly loaded system, before its traced window, and
// reads the main store's decode-cache counters around them: region's
// handful of values always fits the cache; customer's domain exceeds
// its cap on olap_sql and fits on the other workloads.
func probeDecodeCache(sys *system, s session, m map[string]float64) error {
	for _, c := range []class{clsGroupLow, clsGroupHigh} {
		before, err := sys.metrics()
		if err != nil {
			return err
		}
		if _, err := s.Query(c, 0, 0); err != nil {
			return err
		}
		after, err := sys.metrics()
		if err != nil {
			return err
		}
		d := after.delta(before)
		hits, misses := d["hana_decode_cache_hits_total"], d["hana_decode_cache_misses_total"]
		m["mainstore.decode_cache_hit_ratio."+c.String()] = ratio(hits, hits+misses)
	}
	return nil
}
