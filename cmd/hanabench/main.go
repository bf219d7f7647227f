// Command hanabench regenerates the reproduction's experiments (one
// per paper figure; see DESIGN.md §5) and prints the measured tables
// recorded in EXPERIMENTS.md. The repo's gating benchmark is
// `go run ./benchmark` (BENCHMARK.json); this command only prints.
//
//	hanabench               # run all experiments at scale 1.0
//	hanabench -scale 0.2    # faster, smaller
//	hanabench -run E05,E08  # selected experiments
//	hanabench -list         # list experiment ids
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/experiments"
)

func main() {
	if err := runExperiments(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hanabench: %v\n", err)
		os.Exit(1)
	}
}

// runExperiments runs the selected per-figure experiments and prints
// their tables, headed by the host they ran on.
func runExperiments(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hanabench", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	run := fs.String("run", "", "comma-separated experiment ids (default: all)")
	seed := fs.Int64("seed", 42, "workload seed")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Fprintf(out, "%s  %s\n", e.ID, e.Title)
		}
		return nil
	}
	selected := all
	if *run != "" {
		selected = nil
		for _, id := range strings.Split(*run, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			selected = append(selected, e)
		}
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed}
	fmt.Fprintf(out, "hanabench: scale=%.2f seed=%d host=%s (%d experiments)\n\n", *scale, *seed, benchfmt.Host(), len(selected))
	failed := 0
	for _, e := range selected {
		start := time.Now()
		rep, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n\n", e.ID, err)
			failed++
			continue
		}
		fmt.Fprint(out, rep.String())
		fmt.Fprintf(out, "(%s wall time)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed", failed)
	}
	return nil
}
