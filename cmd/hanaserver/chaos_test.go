package main

import (
	"fmt"
	"net"
	"testing"

	hana "repro"
	"repro/internal/leakcheck"
	"repro/internal/netfault"
)

// TestChaosWireBench is the network-chaos capstone: the mixed SQL
// workload runs over session connections whose reads and writes are
// seeded-fault injected (resets, partial writes, stalls, slow-drip
// reads), the reconnecting client retries with an unlimited budget so
// every operation reaches a definitive outcome, and the end state
// must still match the oracle row by row — across many seeds,
// against ONE server instance that has to stay serviceable through
// all of it, with zero goroutine leaks at the end.
//
// The fault plan is per-connection deterministic (plan seed × dial
// index), so a failing seed replays exactly.
func TestChaosWireBench(t *testing.T) {
	snap := leakcheck.Snapshot()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	db := hana.MustOpen(hana.Options{AutoMerge: true})
	srv := newServer(db, ln, serverOptions{maxConns: 128})
	go srv.run()

	seeds := int64(20)
	if testing.Short() {
		seeds = 5
	}
	var totalReconnects, totalRetries uint64
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := netfault.Plan{
				Seed:        seed,
				ResetProb:   0.015,
				PartialProb: 0.015,
				StallProb:   0.01,
				StallDur:    500_000, // 0.5ms
				DripProb:    0.03,
			}
			// Any op abandoned at the transport fails the run: with
			// unlimited retries every op must reach an answer.
			d := drive(t, driveConfig{
				addr: ln.Addr().String(), table: fmt.Sprintf("chaos_%d", seed),
				writers: 2, ops: 55, preload: 150, seed: seed,
				mix:        opMix{InsertPct: 20, UpdatePct: 25, DeletePct: 5},
				dial:       netfault.Dialer(plan, nil),
				maxRetries: -1,
			})
			if _, err := d.verify(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			totalReconnects += d.reconnects
			totalRetries += d.retries

			// The server must still serve a clean connection after the
			// faulted sessions are gone.
			conn, rt := dialLine(t, ln.Addr().String())
			defer conn.Close()
			if got := roundTripLine(t, conn, rt, fmt.Sprintf("SQL SELECT COUNT(*) FROM chaos_%d", seed)); len(got) == 0 {
				t.Fatalf("seed %d: server unserviceable after chaos run", seed)
			}
		})
	}

	// Across this many seeded runs the fault plan must actually have
	// bitten — otherwise the harness is testing a calm network.
	if totalReconnects == 0 {
		t.Errorf("no session ever reconnected across %d seeds: fault injection is not reaching the wire", seeds)
	}
	t.Logf("chaos: %d reconnects, %d command retries across %d seeds", totalReconnects, totalRetries, seeds)

	srv.shutdown()
	db.Close()
	snap.Assert(t)
}
