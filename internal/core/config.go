// Package core implements the paper's primary contribution: the
// unified table (§3) — one logical table backed by the three-stage
// record life cycle (L1-delta → L2-delta → main) with MVCC snapshot
// isolation, redo logging, savepoint-based persistence, and the merge
// machinery of §4 — and the Database that owns transactions, the log,
// the pager, and the background merge scheduler.
package core

import (
	"fmt"
	"time"

	"repro/internal/types"
	"repro/internal/vec"
)

// MergeStrategy selects the L2→main merge variant (§4).
type MergeStrategy uint8

const (
	// MergeClassic is the full merge of §4.1.
	MergeClassic MergeStrategy = iota
	// MergeResort is the re-sorting merge of §4.2.
	MergeResort
	// MergePartial is the partial merge of §4.3 (passive/active split).
	MergePartial
)

func (s MergeStrategy) String() string {
	switch s {
	case MergeResort:
		return "resort"
	case MergePartial:
		return "partial"
	default:
		return "classic"
	}
}

// TableConfig configures a unified table.
type TableConfig struct {
	// Name is the table name, unique within the database.
	Name string
	// Schema describes the columns and primary key.
	Schema *types.Schema
	// L1MaxRows triggers the L1→L2 merge; the paper sizes the L1-delta
	// at 10,000–100,000 rows (§3).
	L1MaxRows int
	// L1MergeBatch bounds rows moved per L1→L2 merge step.
	L1MergeBatch int
	// L2MaxRows triggers closing the L2-delta and scheduling an
	// L2→main merge; the paper sizes the L2-delta up to ~10M rows.
	L2MaxRows int
	// Strategy selects the L2→main merge variant.
	Strategy MergeStrategy
	// MergeWorkers bounds the per-column worker pool of the L2→main
	// merge ("this step is basically executed per column", §4.1):
	// 0 sizes the pool to runtime.GOMAXPROCS, 1 forces the sequential
	// path. The merged output is identical for every worker count.
	MergeWorkers int
	// ActiveMainMax promotes the active main to passive (starting a
	// new chain part) when it exceeds this row count; 0 disables
	// promotion. Only meaningful with MergePartial.
	ActiveMainMax int
	// Compress enables cost-based value-index compression in the main.
	Compress bool
	// CompactDicts discards dictionary garbage at merges (§4.1).
	CompactDicts bool
	// Indexed lists extra columns with inverted indexes (the key
	// column is always indexed).
	Indexed []int
	// Historic marks the table as a history table: merges never
	// garbage-collect old versions, enabling unbounded time travel
	// ("a table has to be defined of type 'historic' during creation
	// time", §4.3).
	Historic bool
	// CheckUnique enforces the primary-key uniqueness constraint on
	// inserts (via the inverted indexes of all three stages, §3.1).
	CheckUnique bool
	// BatchSize is the row capacity of the column batches streamed by
	// the vectorized read path (View.ScanBatches); 0 selects
	// vec.DefaultBatchSize.
	BatchSize int
	// ScanWorkers bounds the morsel-parallel scan worker pool, sized
	// like MergeWorkers: 0 sizes the pool to runtime.GOMAXPROCS, 1
	// forces the sequential single-cursor path. Parallel consumers
	// (aggregation, join builds) combine per-morsel results in morsel
	// order, so every worker count produces the same rows.
	ScanWorkers int
	// ScanMorselRows is the row-range size of one scan morsel — the
	// unit of work the parallel scan dispatches to a worker; 0 selects
	// DefaultMorselRows. Morsels never span life-cycle stages or main
	// chain parts.
	ScanMorselRows int
	// ThrottleRows is the delta-backlog high-watermark (frozen L2
	// rows + open L2 rows) above which writes are throttled with a
	// bounded delay; 0 disables throttling.
	ThrottleRows int
	// OverloadRows is the delta-backlog hard ceiling above which
	// writes are rejected with ErrOverloaded; 0 disables rejection.
	// When both are set, OverloadRows must be >= ThrottleRows.
	OverloadRows int
	// ThrottleMaxDelay bounds the per-write throttle delay; 0 selects
	// the 2ms default when throttling is enabled.
	ThrottleMaxDelay time.Duration
}

// withDefaults fills unset fields with the paper-guided defaults.
func (c TableConfig) withDefaults() (TableConfig, error) {
	if c.Name == "" {
		return c, fmt.Errorf("core: table needs a name")
	}
	if c.Schema == nil {
		return c, fmt.Errorf("core: table %q needs a schema", c.Name)
	}
	if err := c.Schema.Validate(); err != nil {
		return c, err
	}
	if c.L1MaxRows <= 0 {
		c.L1MaxRows = 10_000
	}
	if c.L1MergeBatch <= 0 {
		c.L1MergeBatch = c.L1MaxRows
	}
	if c.L2MaxRows <= 0 {
		c.L2MaxRows = 1_000_000
	}
	if c.BatchSize <= 0 {
		c.BatchSize = vec.DefaultBatchSize
	}
	if c.ThrottleRows > 0 && c.OverloadRows > 0 && c.OverloadRows < c.ThrottleRows {
		return c, fmt.Errorf("core: table %q: OverloadRows %d < ThrottleRows %d", c.Name, c.OverloadRows, c.ThrottleRows)
	}
	if (c.ThrottleRows > 0 || c.OverloadRows > 0) && c.ThrottleMaxDelay <= 0 {
		c.ThrottleMaxDelay = defaultThrottleMaxDelay
	}
	for _, col := range c.Indexed {
		if col < 0 || col >= len(c.Schema.Columns) {
			return c, fmt.Errorf("core: indexed column %d out of range", col)
		}
	}
	return c, nil
}

// indexedFlags returns the per-column inverted-index selection.
func (c TableConfig) indexedFlags() []bool {
	flags := make([]bool, len(c.Schema.Columns))
	if c.Schema.Key >= 0 {
		flags[c.Schema.Key] = true
	}
	for _, col := range c.Indexed {
		flags[col] = true
	}
	return flags
}

// TableStats is a point-in-time snapshot of a table's physical state
// (the record-life-cycle picture of Fig. 4/11).
type TableStats struct {
	Name string
	// Row versions per stage (live and dead).
	L1Rows, L2Rows, FrozenL2Rows, MainRows int
	// MainParts is the chain length (1 = fully merged, ≥2 = split
	// passive/active).
	MainParts int
	// Approximate heap bytes per stage.
	L1Bytes, L2Bytes, MainBytes int
	// Tombstones counts registered main-row deletes awaiting GC.
	Tombstones int
	// Merge counters.
	L1Merges, MainMerges, MergeFailures uint64
	// LastMergeError is the message of the most recent failed L2→main
	// merge, empty after a successful merge. Together with
	// MergeFailures it surfaces merge errors the background scheduler
	// would otherwise retry silently.
	LastMergeError string
	// MergeRetries counts merge attempts made while the table was in
	// a failed state — the retry traffic of the backoff machinery.
	MergeRetries uint64
	// CircuitOpen reports that consecutive merge failures opened the
	// table's merge circuit: merges are only probed on the half-open
	// schedule until one succeeds.
	CircuitOpen bool
	// ThrottledWrites and RejectedWrites count the writes delayed and
	// refused by delta-backlog admission control.
	ThrottledWrites, RejectedWrites uint64
}
