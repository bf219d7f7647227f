package persist

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/types"
	"repro/internal/vfs"
)

func openTestPager(t *testing.T, pageSize int) (*Pager, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.db")
	p, err := OpenFS(vfs.OS, path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return p, path
}

func TestWriteCommitRead(t *testing.T) {
	p, _ := openTestPager(t, 256)
	defer p.Close()
	want := []byte("hello, unified table")
	if err := p.WriteFile("a", want); err != nil {
		t.Fatal(err)
	}
	// Not visible before commit.
	if p.HasFile("a") {
		t.Error("staged file visible before commit")
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadFile("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("ReadFile = %q", got)
	}
	if len(p.dir) != 1 || !p.HasFile("a") {
		t.Errorf("dir = %v", p.dir)
	}
}

func TestMultiPageChains(t *testing.T) {
	p, _ := openTestPager(t, 128) // tiny pages force long chains
	defer p.Close()
	rng := rand.New(rand.NewSource(1))
	want := make([]byte, 10_000)
	rng.Read(want)
	if err := p.WriteFile("big", want); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadFile("big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("multi-page roundtrip mismatch")
	}
}

func TestReopenRestoresState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.db")
	p, err := OpenFS(vfs.OS, path, 256)
	if err != nil {
		t.Fatal(err)
	}
	p.WriteFile("x", []byte("one"))
	p.WriteFile("y", bytes.Repeat([]byte("z"), 700))
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	gen := p.Generation()
	p.Close()

	p2, err := OpenFS(vfs.OS, path, 0) // page size read from superblock
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.pageSize != 256 {
		t.Errorf("PageSize = %d", p2.pageSize)
	}
	if p2.Generation() != gen {
		t.Errorf("Generation = %d, want %d", p2.Generation(), gen)
	}
	got, err := p2.ReadFile("y")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 700 {
		t.Errorf("y length = %d", len(got))
	}
}

func TestShadowPagingCrashBeforeCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.db")
	p, err := OpenFS(vfs.OS, path, 256)
	if err != nil {
		t.Fatal(err)
	}
	p.WriteFile("t", []byte("generation-1"))
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	// Stage a replacement but "crash" (close) before Commit.
	p.WriteFile("t", []byte("generation-2-unpublished"))
	p.Close()

	p2, err := OpenFS(vfs.OS, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	got, err := p2.ReadFile("t")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "generation-1" {
		t.Errorf("after crash = %q, want generation-1", got)
	}
}

func TestPageReuseAfterReplace(t *testing.T) {
	p, _ := openTestPager(t, 128)
	defer p.Close()
	big := bytes.Repeat([]byte("a"), 5000)
	p.WriteFile("f", big)
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	high := p.nextPage
	// Replace the file several times: the footprint must not grow
	// linearly because replaced chains return to the free list.
	for i := 0; i < 10; i++ {
		p.WriteFile("f", big)
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if p.nextPage > high*3 {
		t.Errorf("pages grew from %d to %d: free list not reused", high, p.nextPage)
	}
	got, _ := p.ReadFile("f")
	if !bytes.Equal(got, big) {
		t.Error("content corrupted by reuse")
	}
}

func TestDeleteFile(t *testing.T) {
	p, _ := openTestPager(t, 256)
	defer p.Close()
	p.WriteFile("gone", []byte("data"))
	p.Commit()
	p.DeleteFile("gone")
	p.Commit()
	if p.HasFile("gone") {
		t.Error("deleted file still visible")
	}
	if _, err := p.ReadFile("gone"); err == nil {
		t.Error("reading deleted file should fail")
	}
}

func TestRollbackDiscardsStaged(t *testing.T) {
	p, _ := openTestPager(t, 256)
	defer p.Close()
	p.WriteFile("keep", []byte("v1"))
	p.Commit()
	free := len(p.free)
	p.WriteFile("keep", []byte("v2"))
	p.WriteFile("new", []byte("x"))
	p.Rollback()
	if got, _ := p.ReadFile("keep"); string(got) != "v1" {
		t.Errorf("after rollback keep = %q", got)
	}
	if p.HasFile("new") {
		t.Error("rolled-back file visible")
	}
	if len(p.free) < free {
		t.Error("rollback lost pages")
	}
}

func TestEmptyFileAndMissing(t *testing.T) {
	p, _ := openTestPager(t, 256)
	defer p.Close()
	p.WriteFile("empty", nil)
	p.Commit()
	got, err := p.ReadFile("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty file = %q", got)
	}
	if _, err := p.ReadFile("missing"); err == nil {
		t.Error("missing file read should fail")
	}
}

func TestRejectsTinyPageSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.db")
	if _, err := OpenFS(vfs.OS, path, 64); err == nil {
		t.Error("page size below minimum accepted")
	}
}

func TestCorruptSuperblockFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.db")
	p, _ := OpenFS(vfs.OS, path, 256)
	p.WriteFile("f", []byte("gen1"))
	p.Commit() // gen 1 → slot 1
	p.WriteFile("f", []byte("gen2"))
	p.Commit() // gen 2 → slot 0
	p.Close()

	// Corrupt slot 0 (the newest): open must fall back to gen 1.
	data, _ := os.ReadFile(path)
	data[10] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	p2, err := OpenFS(vfs.OS, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	got, err := p2.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "gen1" {
		t.Errorf("fallback read = %q", got)
	}
}

func TestManyFilesSurviveReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.db")
	p, _ := OpenFS(vfs.OS, path, 256)
	rng := rand.New(rand.NewSource(9))
	want := map[string][]byte{}
	for i := 0; i < 40; i++ {
		name := string(rune('a'+i%26)) + string(rune('0'+i/26))
		data := make([]byte, rng.Intn(2000))
		rng.Read(data)
		want[name] = data
		p.WriteFile(name, data)
	}
	p.Commit()
	p.Close()

	p2, err := OpenFS(vfs.OS, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for name, data := range want {
		got, err := p2.ReadFile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("%s mismatch", name)
		}
	}
}

func TestEncoderDecoderRoundtrip(t *testing.T) {
	e := NewEncoder()
	e.U64(12345)
	e.I64(-678)
	e.Bool(true)
	e.Bool(false)
	e.Str("snapshot")
	e.U64s([]uint64{9, 8, 7})
	e.U32s([]uint32{4, 5})
	vals := []types.Value{types.Int(-1), types.Float(2.5), types.Str("x"), types.Null, types.Bool(true), types.Date(100)}
	for _, v := range vals {
		e.Value(v)
	}

	d := NewDecoder(e.Bytes())
	if v, _ := d.U64(); v != 12345 {
		t.Errorf("U64 = %d", v)
	}
	if v, _ := d.I64(); v != -678 {
		t.Errorf("I64 = %d", v)
	}
	if b, _ := d.Bool(); !b {
		t.Error("Bool true")
	}
	if b, _ := d.Bool(); b {
		t.Error("Bool false")
	}
	if s, _ := d.Str(); s != "snapshot" {
		t.Errorf("Str = %q", s)
	}
	if u, _ := d.U64s(); !reflect.DeepEqual(u, []uint64{9, 8, 7}) {
		t.Errorf("U64s = %v", u)
	}
	if u, _ := d.U32s(); !reflect.DeepEqual(u, []uint32{4, 5}) {
		t.Errorf("U32s = %v", u)
	}
	for _, want := range vals {
		got, err := d.Value()
		if err != nil {
			t.Fatal(err)
		}
		if got.IsNull() != want.IsNull() || (!want.IsNull() && !types.Equal(got, want)) {
			t.Errorf("Value = %v, want %v", got, want)
		}
	}
	if d.Len() != 0 {
		t.Errorf("%d bytes left", d.Len())
	}
}

func TestDecoderRejectsCorruptLengths(t *testing.T) {
	e := NewEncoder()
	e.U64(1 << 40) // absurd length prefix
	d := NewDecoder(e.Bytes())
	if _, err := d.Str(); err == nil {
		t.Error("corrupt string length accepted")
	}
	d2 := NewDecoder(e.Bytes())
	if _, err := d2.U64s(); err == nil {
		t.Error("corrupt slice length accepted")
	}
}

func TestPagerQuickRoundtrip(t *testing.T) {
	p, _ := openTestPager(t, 128)
	defer p.Close()
	f := func(data []byte) bool {
		if err := p.WriteFile("q", data); err != nil {
			return false
		}
		if err := p.Commit(); err != nil {
			return false
		}
		got, err := p.ReadFile("q")
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
