package workload

import "math/rand"

// KeyChooser picks keys from a key space [0, n) for read/update
// targeting — the YCSB request-distribution slot. Implementations are
// seeded and deterministic; they are NOT goroutine-safe, so the bench
// driver hands each client routine its own chooser (per-routine
// state, the yabf InitRoutine contract).
type KeyChooser interface {
	// Next returns the next chosen key in [0, N()).
	Next() uint64
	// N returns the key-space size.
	N() uint64
}

// DefaultZipfS is the default Zipfian skew exponent; 1.1 concentrates
// roughly half the accesses on the hottest few percent of keys —
// the "very selective point queries" against a hot working set the
// paper's ERP workloads exhibit (§1).
const DefaultZipfS = 1.1

type zipfianChooser struct {
	zipf *rand.Zipf
	n    uint64
}

// NewZipfian returns a Zipfian chooser over [0, n) with skew s
// (s > 1; s <= 1 selects DefaultZipfS). Key 0 is the hottest.
func NewZipfian(seed int64, n uint64, s float64) KeyChooser {
	if n < 1 {
		n = 1
	}
	if s <= 1 {
		s = DefaultZipfS
	}
	rng := rand.New(rand.NewSource(seed))
	return &zipfianChooser{zipf: rand.NewZipf(rng, s, 1, n-1), n: n}
}

func (c *zipfianChooser) Next() uint64 { return c.zipf.Uint64() }
func (c *zipfianChooser) N() uint64    { return c.n }
