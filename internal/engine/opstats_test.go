package engine

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestOpStatsNilSafe: the disabled state is a nil pointer; every
// method must be a no-op returning zero values.
func TestOpStatsNilSafe(t *testing.T) {
	var s *OpStats
	s.AddOut(5)
	s.AddWall(time.Second)
	s.AddBudget(100)
	s.SetScan(core.ScanStats{Rows: 9, Workers: 4})
	if s.RowsOut() != 0 || s.Wall() != 0 ||
		s.Workers() != 0 || s.Morsels() != 0 {
		t.Fatal("nil OpStats leaked state")
	}
	if s.Touched() {
		t.Fatal("nil OpStats reports touched")
	}
	if s.Actuals() != "" {
		t.Fatalf("nil Actuals = %q", s.Actuals())
	}
}

// TestOpStatsActuals pins the annotation rendering: rows and wall are
// always present, the optional fields only when informative.
func TestOpStatsActuals(t *testing.T) {
	s := &OpStats{}
	if s.Touched() {
		t.Fatal("zero OpStats reports touched")
	}
	s.AddOut(100)
	s.AddOut(28)
	s.AddWall(1234567 * time.Nanosecond)
	if !s.Touched() {
		t.Fatal("recorded OpStats not touched")
	}
	if got, want := s.Actuals(), "rows=128 batches=2 wall=1.235ms"; got != want {
		t.Fatalf("Actuals = %q, want %q", got, want)
	}

	// A scan fold overwrites the scan-shaped fields and unlocks the
	// optional annotations.
	s.SetScan(core.ScanStats{
		Rows: 1000, Batches: 4, ResidualDropped: 24,
		DecodeHits: 3, DecodeMisses: 1,
		Workers: 8, Morsels: 16, CacheBytes: 4096,
	})
	got := s.Actuals()
	for _, want := range []string{
		"rows=1000", "batches=4", "workers=8", "morsels=16",
		"residual-dropped=24", "decode=3/1", "mem=4096B",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Actuals %q missing %q", got, want)
		}
	}

	// A single-worker scan is sequential: no workers annotation.
	seq := &OpStats{}
	seq.SetScan(core.ScanStats{Rows: 10, Batches: 1, Workers: 1})
	if strings.Contains(seq.Actuals(), "workers=") {
		t.Errorf("sequential Actuals %q lists workers", seq.Actuals())
	}
	if !seq.Touched() {
		t.Fatal("scanned-but-zero-wall OpStats not touched")
	}

	// AddBudget accumulates on top of the scan's cache bytes.
	s.AddBudget(100)
	s.AddBudget(28)
	if got = s.Actuals(); !strings.Contains(got, "mem=4224B") {
		t.Errorf("after budget charges Actuals = %q", got)
	}
}
