// Package persist implements the paged persistence layer of §3.2:
// "the persistence layer is based on a virtual file concept with
// visible page limits of configurable size. Adapting the concepts of
// the SAP MaxDB system, the persistence layer relies on frequent
// savepointing to provide a consistent snapshot with very low
// resource overhead."
//
// A Pager manages fixed-size pages inside one backing OS file and
// exposes named virtual files, each a chain of pages. Savepoints use
// shadow paging: new content is written to free pages, a new
// directory chain is built, and one of two superblock slots is
// flipped with a generation counter and checksum — a crash before the
// flip leaves the previous savepoint fully intact.
package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"repro/internal/vfs"
)

const (
	magic         = 0x48414E41 // "HANA"
	superSlots    = 2          // double-buffered superblock
	pagePtrSize   = 8          // trailing next-page pointer
	minPageSize   = 128
	maxPageSize   = 1 << 26 // sanity bound when probing possibly-torn superblocks
	defaultPageSz = 4096
)

// ErrNoSuperblock reports a store whose superblock slots are both
// invalid. Because every successful Commit leaves the alternate slot
// untouched and valid, this can only mean the store was never
// committed (a crash tore the very first initialization) or the file
// was corrupted externally; either way no committed savepoint exists
// in it, and callers holding a complete redo log may safely treat the
// store as empty.
var ErrNoSuperblock = errors.New("persist: no valid superblock")

// Pager is a page-oriented store with named virtual files.
type Pager struct {
	f        vfs.File
	pageSize int
	gen      uint64
	// dir maps virtual file name → (root page, length in bytes).
	dir map[string]fileEntry
	// free lists pages available for reuse; nextPage is the
	// high-water mark.
	free     []int64
	nextPage int64
	// pending pages written since the last commit (become live on
	// Commit, returned to free on Rollback).
	pendingDir map[string]fileEntry
	pendingNew []int64
}

type fileEntry struct {
	root   int64
	length int64
}

// OpenFS opens (or creates) a pager-backed store at path on fsys (the
// real file system, fault injection, in-memory stores). pageSize is
// only used when creating; an existing store keeps its configured
// size.
func OpenFS(fsys vfs.FS, path string, pageSize int) (*Pager, error) {
	if pageSize <= 0 {
		pageSize = defaultPageSz
	}
	if pageSize < minPageSize {
		return nil, fmt.Errorf("persist: page size %d below minimum %d", pageSize, minPageSize)
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: %w", err)
	}
	p := &Pager{f: f, pageSize: pageSize, dir: map[string]fileEntry{}, pendingDir: map[string]fileEntry{}}
	if st.Size() == 0 {
		p.nextPage = superSlots // pages 0,1 reserved for superblocks
		if err := p.writeSuper(); err != nil {
			f.Close()
			return nil, err
		}
		return p, nil
	}
	if err := p.load(); err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

// Generation returns the committed savepoint generation.
func (p *Pager) Generation() uint64 { return p.gen }

// payload returns the usable bytes per page.
func (p *Pager) payload() int { return p.pageSize - pagePtrSize }

// superblock layout: magic u32, crc u32, gen u64, pageSize u64,
// dirRoot i64, dirLen i64. CRC covers everything after the crc field.
func (p *Pager) encodeSuper(dirRoot, dirLen int64) []byte {
	buf := make([]byte, p.pageSize)
	binary.LittleEndian.PutUint32(buf[0:4], magic)
	binary.LittleEndian.PutUint64(buf[8:16], p.gen)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(p.pageSize))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(dirRoot))
	binary.LittleEndian.PutUint64(buf[32:40], uint64(dirLen))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[8:]))
	return buf
}

func (p *Pager) writeSuper() error {
	// Serialize the directory into fresh pages first.
	data := encodeDir(p.dir)
	var root int64 = -1
	if len(data) > 0 {
		var err error
		root, err = p.writeChain(data)
		if err != nil {
			return err
		}
	}
	slot := int64(p.gen % superSlots)
	buf := p.encodeSuper(root, int64(len(data)))
	if _, err := p.f.WriteAt(buf, slot*int64(p.pageSize)); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

func (p *Pager) load() error {
	// Read page size from slot 0 tentatively; both slots must agree on
	// page size, so probe with a small read. A short read (file torn
	// mid-initialization) leaves the probe zeroed and fails the magic
	// check, falling through to the slot scan.
	var probe [40]byte
	_, _ = p.f.ReadAt(probe[:], 0)
	if binary.LittleEndian.Uint32(probe[0:4]) == magic {
		// A torn slot write can leave valid magic over a garbage size;
		// only adopt a plausible value (the CRC check decides validity).
		if ps := binary.LittleEndian.Uint64(probe[16:24]); ps >= minPageSize && ps <= maxPageSize {
			p.pageSize = int(ps)
		}
	}
	var best []byte
	bestGen := uint64(0)
	found := false
	for slot := 0; slot < superSlots; slot++ {
		buf := make([]byte, p.pageSize)
		if _, err := p.f.ReadAt(buf, int64(slot)*int64(p.pageSize)); err != nil {
			continue
		}
		if binary.LittleEndian.Uint32(buf[0:4]) != magic {
			continue
		}
		if crc32.ChecksumIEEE(buf[8:]) != binary.LittleEndian.Uint32(buf[4:8]) {
			continue
		}
		gen := binary.LittleEndian.Uint64(buf[8:16])
		if !found || gen > bestGen {
			best, bestGen, found = buf, gen, true
		}
	}
	if !found {
		return ErrNoSuperblock
	}
	p.gen = bestGen
	p.pageSize = int(binary.LittleEndian.Uint64(best[16:24]))
	dirRoot := int64(binary.LittleEndian.Uint64(best[24:32]))
	dirLen := int64(binary.LittleEndian.Uint64(best[32:40]))
	if dirRoot >= 0 {
		data, err := p.readChain(dirRoot, dirLen)
		if err != nil {
			return err
		}
		p.dir, err = decodeDir(data)
		if err != nil {
			return err
		}
	}
	// Rebuild allocation state: pages reachable from the directory and
	// its chain are live; everything else below the high-water mark is
	// free.
	st, err := p.f.Stat()
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	p.nextPage = (st.Size() + int64(p.pageSize) - 1) / int64(p.pageSize)
	if p.nextPage < superSlots {
		p.nextPage = superSlots
	}
	live := map[int64]bool{}
	if dirRoot >= 0 {
		if err := p.markChain(dirRoot, dirLen, live); err != nil {
			return err
		}
	}
	for _, e := range p.dir {
		if err := p.markChain(e.root, e.length, live); err != nil {
			return err
		}
	}
	for pg := int64(superSlots); pg < p.nextPage; pg++ {
		if !live[pg] {
			p.free = append(p.free, pg)
		}
	}
	sort.Slice(p.free, func(a, b int) bool { return p.free[a] < p.free[b] })
	return nil
}

func (p *Pager) markChain(root, length int64, live map[int64]bool) error {
	pg := root
	remaining := length
	for pg >= 0 && remaining > 0 {
		if live[pg] {
			return fmt.Errorf("persist: page %d linked twice", pg)
		}
		live[pg] = true
		next, err := p.readNextPtr(pg)
		if err != nil {
			return err
		}
		remaining -= int64(p.payload())
		pg = next
	}
	return nil
}

func (p *Pager) readNextPtr(pg int64) (int64, error) {
	var buf [pagePtrSize]byte
	off := pg*int64(p.pageSize) + int64(p.payload())
	if _, err := p.f.ReadAt(buf[:], off); err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	return int64(binary.LittleEndian.Uint64(buf[:])), nil
}

// alloc takes a page from the free list or extends the file.
func (p *Pager) alloc() int64 {
	if n := len(p.free); n > 0 {
		pg := p.free[n-1]
		p.free = p.free[:n-1]
		p.pendingNew = append(p.pendingNew, pg)
		return pg
	}
	pg := p.nextPage
	p.nextPage++
	p.pendingNew = append(p.pendingNew, pg)
	return pg
}

// writeChain writes data into a fresh page chain, returning the root.
func (p *Pager) writeChain(data []byte) (int64, error) {
	payload := p.payload()
	npages := (len(data) + payload - 1) / payload
	if npages == 0 {
		npages = 1
	}
	pages := make([]int64, npages)
	for i := range pages {
		pages[i] = p.alloc()
	}
	buf := make([]byte, p.pageSize)
	for i := 0; i < npages; i++ {
		lo := i * payload
		hi := lo + payload
		if hi > len(data) {
			hi = len(data)
		}
		for j := range buf {
			buf[j] = 0
		}
		copy(buf, data[lo:hi])
		next := int64(-1)
		if i+1 < npages {
			next = pages[i+1]
		}
		binary.LittleEndian.PutUint64(buf[payload:], uint64(next))
		if _, err := p.f.WriteAt(buf, pages[i]*int64(p.pageSize)); err != nil {
			return 0, fmt.Errorf("persist: %w", err)
		}
	}
	return pages[0], nil
}

func (p *Pager) readChain(root, length int64) ([]byte, error) {
	out := make([]byte, 0, length)
	payload := p.payload()
	buf := make([]byte, p.pageSize)
	pg := root
	remaining := length
	for remaining > 0 {
		if pg < 0 {
			return nil, fmt.Errorf("persist: chain ends %d bytes early", remaining)
		}
		if _, err := p.f.ReadAt(buf, pg*int64(p.pageSize)); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		n := int64(payload)
		if n > remaining {
			n = remaining
		}
		out = append(out, buf[:n]...)
		remaining -= n
		pg = int64(binary.LittleEndian.Uint64(buf[payload:]))
	}
	return out, nil
}

// chainPages lists the pages of a chain.
func (p *Pager) chainPages(root, length int64) ([]int64, error) {
	var pages []int64
	pg := root
	remaining := length
	for pg >= 0 && remaining > 0 {
		pages = append(pages, pg)
		next, err := p.readNextPtr(pg)
		if err != nil {
			return nil, err
		}
		remaining -= int64(p.payload())
		pg = next
	}
	return pages, nil
}

// WriteFile stages a virtual file: content goes to fresh (shadow)
// pages and becomes visible at the next Commit.
func (p *Pager) WriteFile(name string, data []byte) error {
	root, err := p.writeChain(data)
	if err != nil {
		return err
	}
	p.pendingDir[name] = fileEntry{root: root, length: int64(len(data))}
	return nil
}

// ReadFile returns the committed content of a virtual file.
func (p *Pager) ReadFile(name string) ([]byte, error) {
	e, ok := p.dir[name]
	if !ok {
		return nil, fmt.Errorf("persist: no file %q", name)
	}
	return p.readChain(e.root, e.length)
}

// HasFile reports whether a committed virtual file exists.
func (p *Pager) HasFile(name string) bool {
	_, ok := p.dir[name]
	return ok
}

// Commit atomically publishes all staged writes as the next
// savepoint generation: the directory chain is rewritten and the
// alternate superblock slot flipped. Pages of replaced files return
// to the free list only after the flip succeeds.
func (p *Pager) Commit() error {
	// Collect pages of files being replaced or deleted.
	var obsolete []int64
	newDir := make(map[string]fileEntry, len(p.dir))
	for k, v := range p.dir {
		newDir[k] = v
	}
	for name, e := range p.pendingDir {
		if old, ok := newDir[name]; ok {
			pages, err := p.chainPages(old.root, old.length)
			if err != nil {
				return err
			}
			obsolete = append(obsolete, pages...)
		}
		if e.root < 0 {
			delete(newDir, name)
		} else {
			newDir[name] = e
		}
	}
	// Barrier: page chains and the directory must be durable before
	// the superblock flip makes them reachable — a flip that reaches
	// disk ahead of its pages would point a recovered store at
	// garbage.
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	// Also free the previous directory chain.
	oldDir := p.dir
	p.dir = newDir
	p.gen++
	if err := p.writeSuper(); err != nil {
		p.dir = oldDir
		p.gen--
		return err
	}
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	p.free = append(p.free, obsolete...)
	p.pendingDir = map[string]fileEntry{}
	p.pendingNew = nil
	return nil
}

// Rollback discards staged writes, returning their pages to the free
// list.
func (p *Pager) Rollback() {
	p.free = append(p.free, p.pendingNew...)
	p.pendingNew = nil
	p.pendingDir = map[string]fileEntry{}
}

// Close closes the backing file without committing staged writes.
func (p *Pager) Close() error {
	if p.f == nil {
		return nil
	}
	err := p.f.Close()
	p.f = nil
	return err
}

func encodeDir(dir map[string]fileEntry) []byte {
	names := make([]string, 0, len(dir))
	for n := range dir {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { b.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	put(uint64(len(names)))
	for _, n := range names {
		put(uint64(len(n)))
		b.WriteString(n)
		e := dir[n]
		put(uint64(e.root))
		put(uint64(e.length))
	}
	return b.Bytes()
}

func decodeDir(data []byte) (map[string]fileEntry, error) {
	b := bytes.NewBuffer(data)
	n, err := binary.ReadUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("persist: corrupt directory: %w", err)
	}
	dir := make(map[string]fileEntry, capHint(n, len(data)))
	for i := uint64(0); i < n; i++ {
		ln, err := binary.ReadUvarint(b)
		if err != nil {
			return nil, fmt.Errorf("persist: corrupt directory: %w", err)
		}
		if ln > uint64(b.Len()) {
			return nil, fmt.Errorf("persist: corrupt directory name length")
		}
		name := string(b.Next(int(ln)))
		root, err := binary.ReadUvarint(b)
		if err != nil {
			return nil, err
		}
		length, err := binary.ReadUvarint(b)
		if err != nil {
			return nil, err
		}
		dir[name] = fileEntry{root: int64(root), length: int64(length)}
	}
	return dir, nil
}
