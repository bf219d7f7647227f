package main

import (
	"context"
	"fmt"
	"strings"

	hana "repro"
	"repro/internal/sql"
)

// probeSQL times the front end alone: parsing a statement text, and
// preparing it on an engine whose plan cache has never seen it (parse,
// semantic check, compile).
func probeSQL(e *probeEnv) error {
	db, err := hana.Open(hana.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := db.CreateTable(ordersConfig(tableShape{})); err != nil {
		return err
	}
	n := e.r.cfg.scaled(5_000)
	for _, c := range []class{clsPoint, clsInsert, clsGroupLow} {
		d := perCall(n, func(int) {
			if _, perr := sql.Parse(sqlText[c]); perr != nil {
				err = perr
			}
		})
		if err != nil {
			return err
		}
		e.m["sql.parse_us."+c.String()] = micros(d)
	}
	for _, c := range []class{clsPoint, clsGroupLow} {
		d := perCall(n, func(int) {
			if _, perr := hana.NewSQLEngine(db, hana.TableConfig{}).Prepare(sqlText[c]); perr != nil {
				err = perr
			}
		})
		if err != nil {
			return err
		}
		e.m["sql.prepare_us."+c.String()] = micros(d)
	}
	return nil
}

// probeRowsExamined reads EXPLAIN ANALYZE of the point read on the
// ladder's embedded database: the rows its table-scan operator emitted
// per row the statement returned.
func probeRowsExamined(sys *system, m map[string]float64) error {
	plan, res, err := sys.eng.ExplainAnalyzeCtx(context.Background(), nil, sqlText[clsPoint], hana.Int(1))
	if err != nil {
		return err
	}
	for _, line := range strings.Split(plan, "\n") {
		if _, rest, ok := strings.Cut(line, "table("+ordersTable+")"); ok {
			if _, rows, ok := strings.Cut(rest, "rows="); ok {
				var scanned float64
				if _, err := fmt.Sscan(rows, &scanned); err != nil {
					return fmt.Errorf("plan line %q: %w", line, err)
				}
				m["sql.rows_examined_per_row.point"] = ratio(scanned, float64(len(res.Rows)))
				return nil
			}
		}
	}
	return fmt.Errorf("no scan actuals in plan:\n%s", plan)
}
