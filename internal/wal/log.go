package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// framing: [4B payload length][4B IEEE CRC of payload][payload].
const frameHeader = 8

// maxRecordSize bounds a single record; larger reads are treated as
// corruption.
const maxRecordSize = 64 << 20

// Log is an append-only segmented redo log in a directory. Appends
// are serialized internally; replay may run on a quiescent log only.
type Log struct {
	mu      sync.Mutex
	fs      vfs.FS
	dir     string
	seg     vfs.File
	w       *bufio.Writer
	segSeq  int
	syncing bool // fsync on every Sync call
	met     obs.WALMetrics
}

// Options configures a Log.
type Options struct {
	// SyncOnCommit makes Sync issue a real fsync. Off by default so
	// benchmarks measure the engine, not the disk; durability-focused
	// experiments switch it on.
	SyncOnCommit bool
	// FS selects the file system (nil = the real OS). Fault-injecting
	// file systems plug in here.
	FS vfs.FS
	// Metrics holds the redo-log metric handles; the zero value is a
	// valid disabled set (every handle nil, every update a no-op).
	Metrics obs.WALMetrics
}

// Open opens (or creates) the log in dir and positions appends at the
// newest segment. A torn tail left by a crash mid-append is truncated
// to the last intact record, so that records appended from now on
// stay reachable by future replays (replay stops at the first
// invalid frame; appending after torn bytes would orphan everything
// that follows).
func Open(dir string, opts Options) (*Log, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{fs: fsys, dir: dir, syncing: opts.SyncOnCommit, met: opts.Metrics}
	segs, err := l.segments()
	if err != nil {
		return nil, err
	}
	l.segSeq = 1
	if n := len(segs); n > 0 {
		l.segSeq = segs[n-1]
		if err := l.truncateTornTail(l.segSeq); err != nil {
			return nil, err
		}
	}
	if err := l.openSegment(l.segSeq, true); err != nil {
		return nil, err
	}
	return l, nil
}

func segName(seq int) string { return fmt.Sprintf("wal-%06d.log", seq) }

// segments returns the existing segment sequence numbers, ascending.
func (l *Log) segments() ([]int, error) {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"))
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs, nil
}

// validPrefixLen walks a segment's frames and returns the byte length
// of the longest prefix of intact records.
func (l *Log) validPrefixLen(path string) (int64, error) {
	f, err := l.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var valid int64
	for {
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return valid, nil // EOF or torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxRecordSize {
			return valid, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return valid, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != want {
			return valid, nil
		}
		valid += frameHeader + int64(n)
	}
}

// truncateTornTail cuts a segment back to its last intact record.
func (l *Log) truncateTornTail(seq int) error {
	path := filepath.Join(l.dir, segName(seq))
	st, err := l.fs.Stat(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	valid, err := l.validPrefixLen(path)
	if err != nil {
		return err
	}
	if valid == st.Size() {
		return nil
	}
	f, err := l.fs.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(valid); err != nil {
		return fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
	}
	return f.Sync()
}

func (l *Log) openSegment(seq int, appendMode bool) error {
	flags := os.O_CREATE | os.O_WRONLY
	if appendMode {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := l.fs.OpenFile(filepath.Join(l.dir, segName(seq)), flags, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.seg = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	return nil
}

// Seq returns the current (newest) segment sequence number. The
// savepoint mechanism records it in the snapshot so recovery can skip
// segments whose records the snapshot already contains.
func (l *Log) Seq() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segSeq
}

// Append writes a record to the current segment.
func (l *Log) Append(r *Record) error {
	payload := r.Encode()
	if len(payload) > maxRecordSize {
		return fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seg == nil {
		return errors.New("wal: log closed")
	}
	if _, err := l.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := l.w.Write(payload); err != nil {
		return err
	}
	l.met.Appends.Inc()
	l.met.AppendBytes.Add(uint64(frameHeader + len(payload)))
	return nil
}

// Sync flushes buffered records and, when configured, fsyncs.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.seg == nil {
		return errors.New("wal: log closed")
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if l.syncing {
		// Only real fsyncs are metered: without SyncOnCommit a Sync is
		// just a buffer flush and timing it would misstate durability
		// cost.
		start := l.met.SyncSeconds.Start()
		err := l.seg.Sync()
		l.met.SyncSeconds.Stop(start)
		if err == nil {
			l.met.Syncs.Inc()
		}
		return err
	}
	return nil
}

// Rotate closes the current segment and starts a fresh one; the
// savepoint mechanism rotates so that obsolete segments can be
// dropped wholesale ("after the savepoint, the REDO log can be
// truncated", §3.2).
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.seg.Close(); err != nil {
		return err
	}
	l.segSeq++
	return l.openSegment(l.segSeq, false)
}

// DropBefore deletes all segments older than the current one.
func (l *Log) DropBefore() error {
	l.mu.Lock()
	cur := l.segSeq
	dir := l.dir
	l.mu.Unlock()
	segs, err := l.segments()
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s < cur {
			if err := l.fs.Remove(filepath.Join(dir, segName(s))); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
		}
	}
	return nil
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seg == nil {
		return nil
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	err := l.seg.Close()
	l.seg = nil
	return err
}

// ReplayFrom reads every record of the segments with sequence number
// ≥ minSeq in order and calls fn. A torn or corrupt tail ends replay
// without error ("recovery" takes whatever prefix is intact);
// corruption before the tail is reported. Records in older segments predate the savepoint that recorded
// minSeq: their effects are part of the snapshot already, and
// re-applying them would double-apply (the savepoint deletes those
// segments, but a crash between the superblock flip and the deletion
// leaves them on disk).
func (l *Log) ReplayFrom(minSeq int, fn func(*Record) error) error {
	l.mu.Lock()
	if l.seg != nil {
		if err := l.syncLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	dir := l.dir
	l.mu.Unlock()
	segs, err := l.segments()
	if err != nil {
		return err
	}
	for i, seq := range segs {
		if seq < minSeq {
			continue
		}
		last := i == len(segs)-1
		if err := replaySegment(l.fs, filepath.Join(dir, segName(seq)), last, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(fsys vfs.FS, path string, tolerateTail bool, fn func(*Record) error) error {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			if tolerateTail && errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return fmt.Errorf("wal: torn header in %s: %w", path, err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxRecordSize {
			if tolerateTail {
				return nil
			}
			return fmt.Errorf("wal: corrupt length %d in %s", n, path)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			if tolerateTail {
				return nil
			}
			return fmt.Errorf("wal: torn payload in %s: %w", path, err)
		}
		if crc32.ChecksumIEEE(payload) != want {
			if tolerateTail {
				return nil
			}
			return fmt.Errorf("wal: checksum mismatch in %s", path)
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return fmt.Errorf("wal: %s: %w", path, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}
