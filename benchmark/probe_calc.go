package main

import (
	hana "repro"
)

// probeCalc times building, validating and optimizing q_group_low's
// calc graph without executing it: the per-statement planning the SQL
// layer repeats on every execution.
func probeCalc(e *probeEnv) error {
	db, err := hana.Open(hana.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	orders, err := db.CreateTable(ordersConfig(tableShape{}))
	if err != nil {
		return err
	}
	d := perCall(e.r.cfg.scaled(20_000), func(int) {
		g, _ := queryGraph(orders, nil, clsGroupLow, 0, 0)
		if verr := g.Validate(); verr != nil {
			err = verr
		}
		g.Optimize()
	})
	e.m["calc.build_optimize_us.q_group_low"] = micros(d)
	return err
}
