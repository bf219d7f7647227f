package rowstore

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/types"
)

func schema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "id", Kind: types.KindInt64},
		{Name: "city", Kind: types.KindString, Nullable: true},
	}, 0)
}

func store(t *testing.T, sec ...int) *Store {
	t.Helper()
	s, err := New(schema(), sec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func row(id int64, city string) []types.Value {
	if city == "" {
		return []types.Value{types.Int(id), types.Null}
	}
	return []types.Value{types.Int(id), types.Str(city)}
}

func TestInsertGet(t *testing.T) {
	s := store(t)
	id, err := s.Insert(row(1, "Berlin"))
	if err != nil || id == 0 {
		t.Fatalf("insert: %d %v", id, err)
	}
	got, ok := s.Get(types.Int(1))
	if !ok || got[1].S != "Berlin" {
		t.Fatalf("get = %v %v", got, ok)
	}
	if _, ok := s.Get(types.Int(2)); ok {
		t.Error("missing key found")
	}
	if _, err := s.Insert(row(1, "dup")); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("dup err = %v", err)
	}
	if s.Len() != 1 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestUpdateInPlace(t *testing.T) {
	s := store(t)
	s.Insert(row(1, "Berlin"))
	if err := s.Update(types.Int(1), row(1, "Seoul")); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(types.Int(1))
	if got[1].S != "Seoul" {
		t.Errorf("after update = %v", got)
	}
	if err := s.Update(types.Int(9), row(9, "x")); !errors.Is(err, ErrNotFound) {
		t.Errorf("update missing = %v", err)
	}
	// Key change.
	if err := s.Update(types.Int(1), row(2, "Seoul")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(types.Int(1)); ok {
		t.Error("old key still resolves")
	}
	if _, ok := s.Get(types.Int(2)); !ok {
		t.Error("new key missing")
	}
	// Key change onto an existing key is rejected.
	s.Insert(row(3, "x"))
	if err := s.Update(types.Int(3), row(2, "x")); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("key collision = %v", err)
	}
}

func TestDeleteSwapRemove(t *testing.T) {
	s := store(t)
	for i := int64(1); i <= 5; i++ {
		s.Insert(row(i, fmt.Sprintf("c%d", i)))
	}
	if err := s.Delete(types.Int(2)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d", s.Len())
	}
	// All remaining keys still resolve after the swap.
	for _, id := range []int64{1, 3, 4, 5} {
		if _, ok := s.Get(types.Int(id)); !ok {
			t.Errorf("key %d lost after swap-remove", id)
		}
	}
	if err := s.Delete(types.Int(2)); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete = %v", err)
	}
}

func TestSecondaryIndexMaintained(t *testing.T) {
	s := store(t, 1)
	s.Insert(row(1, "Berlin"))
	s.Insert(row(2, "Berlin"))
	s.Insert(row(3, "Seoul"))
	if got := s.LookupSecondary(1, types.Str("Berlin")); len(got) != 2 {
		t.Errorf("Berlin ids = %v", got)
	}
	s.Update(types.Int(1), row(1, "Seoul"))
	if got := s.LookupSecondary(1, types.Str("Berlin")); len(got) != 1 {
		t.Errorf("after update = %v", got)
	}
	if got := s.LookupSecondary(1, types.Str("Seoul")); len(got) != 2 {
		t.Errorf("Seoul ids = %v", got)
	}
	s.Delete(types.Int(3))
	if got := s.LookupSecondary(1, types.Str("Seoul")); len(got) != 1 {
		t.Errorf("after delete = %v", got)
	}
	// NULL values never enter the index.
	s.Insert(row(9, ""))
	if got := s.LookupSecondary(1, types.Null); got != nil {
		t.Errorf("NULL indexed: %v", got)
	}
	// Unindexed column returns nothing.
	if got := s.LookupSecondary(0, types.Int(1)); got != nil {
		t.Errorf("unindexed lookup = %v", got)
	}
}

func TestScanAndMemSize(t *testing.T) {
	s := store(t)
	for i := int64(1); i <= 10; i++ {
		s.Insert(row(i, "c"))
	}
	n := 0
	s.Scan(func(types.RowID, []types.Value) bool { n++; return true })
	if n != 10 {
		t.Errorf("scan = %d", n)
	}
	n = 0
	s.Scan(func(types.RowID, []types.Value) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop = %d", n)
	}
	if s.MemSize() <= 0 {
		t.Error("MemSize not positive")
	}
}

func TestNewRejections(t *testing.T) {
	noKey := types.MustSchema([]types.Column{{Name: "v", Kind: types.KindInt64}}, -1)
	if _, err := New(noKey, nil); err == nil {
		t.Error("keyless schema accepted")
	}
	if _, err := New(schema(), []int{7}); err == nil {
		t.Error("out-of-range secondary accepted")
	}
}
