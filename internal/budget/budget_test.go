package budget

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/types"
)

func TestMeterReserve(t *testing.T) {
	m := NewMeter(100)
	if err := m.Reserve(60); err != nil {
		t.Fatalf("first reserve: %v", err)
	}
	if err := m.Reserve(40); err != nil {
		t.Fatalf("exact fill: %v", err)
	}
	err := m.Reserve(1)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("overflow: got %v, want ErrBudgetExceeded", err)
	}
	if m.used.Load() != 101 {
		t.Fatalf("Used = %d, want 101 (monotonic high-water)", m.used.Load())
	}
	if m.limit != 100 {
		t.Fatalf("Limit = %d", m.limit)
	}
}

func TestNilMeterIsUnlimited(t *testing.T) {
	var m *Meter
	if err := m.Reserve(1 << 40); err != nil {
		t.Fatalf("nil meter must accept everything: %v", err)
	}
	if NewMeter(0) != nil || NewMeter(-5) != nil {
		t.Fatalf("non-positive limits must mean unlimited")
	}
}

func TestMeterConcurrentReserve(t *testing.T) {
	const (
		workers = 8
		perW    = 1000
	)
	m := NewMeter(workers * perW)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				_ = m.Reserve(1)
			}
		}()
	}
	wg.Wait()
	if m.used.Load() != workers*perW {
		t.Fatalf("Used = %d, want %d", m.used.Load(), workers*perW)
	}
	if err := m.Reserve(1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget should now be exhausted, got %v", err)
	}
}

func TestContextRoundTrip(t *testing.T) {
	m := NewMeter(10)
	ctx := WithMeter(context.Background(), m)
	if got := FromContext(ctx); got != m {
		t.Fatalf("FromContext = %p, want %p", got, m)
	}
	if FromContext(context.Background()) != nil {
		t.Fatalf("bare context should carry no meter")
	}
	if FromContext(nil) != nil {
		t.Fatalf("nil context should carry no meter")
	}
	if got := WithMeter(context.Background(), nil); FromContext(got) != nil {
		t.Fatalf("attaching a nil meter should be a no-op")
	}
}

func TestByteEstimates(t *testing.T) {
	if ValueBytes(types.Int(7)) != valueOverhead {
		t.Fatalf("int estimate")
	}
	s := ValueBytes(types.Str("hello"))
	if s != valueOverhead+5 {
		t.Fatalf("string estimate = %d", s)
	}
	row := []types.Value{types.Int(1), types.Str("ab")}
	if got := RowBytes(row); got != 3*valueOverhead+2 {
		t.Fatalf("row estimate = %d", got)
	}
}
