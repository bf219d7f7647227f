package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hana "repro"
)

// tempErr is a transient net.Error, the kind Accept returns under
// file-descriptor pressure or a full accept queue.
type tempErr struct{}

func (tempErr) Error() string   { return "accept: resource temporarily unavailable" }
func (tempErr) Timeout() bool   { return true }
func (tempErr) Temporary() bool { return true }

// flakyListener fails its first N Accept calls with a transient error,
// then hands out connections pushed through the conns channel.
type flakyListener struct {
	fails int32
	conns chan net.Conn

	once   sync.Once
	closed chan struct{}
}

func newFlakyListener(fails int32) *flakyListener {
	return &flakyListener{fails: fails, conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *flakyListener) Accept() (net.Conn, error) {
	select {
	case <-l.closed:
		return nil, net.ErrClosed
	default:
	}
	if atomic.AddInt32(&l.fails, -1) >= 0 {
		return nil, tempErr{}
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *flakyListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// TestAcceptLoopSurvivesTransientErrors is the regression test for
// the accept-loop bug: a transient Accept error used to return from
// the loop and kill the whole server. Now it backs off and keeps
// serving.
func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	db := hana.MustOpen(hana.Options{})
	t.Cleanup(func() { db.Close() })
	ln := newFlakyListener(3)
	srv := newServer(db, ln, serverOptions{})
	done := make(chan struct{})
	go func() { srv.run(); close(done) }()
	t.Cleanup(srv.shutdown)

	serverSide, clientSide := net.Pipe()
	select {
	case ln.conns <- serverSide:
	case <-time.After(5 * time.Second):
		t.Fatal("accept loop died after transient errors")
	}
	defer clientSide.Close()
	fmt.Fprintln(clientSide, "SQL CREATE TABLE t (id INT PRIMARY KEY)")
	sc := bufio.NewScanner(clientSide)
	if !sc.Scan() || sc.Text() != "OK 0" {
		t.Fatalf("CREATE TABLE over post-flake connection: %q (err %v)", sc.Text(), sc.Err())
	}
	srv.shutdown()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after shutdown")
	}
}

// TestOversizedLineReported is the regression test for the silent
// disconnect: a line over the scanner limit must produce an explicit
// "ERR line too long" before the connection closes.
func TestOversizedLineReported(t *testing.T) {
	db := hana.MustOpen(hana.Options{})
	t.Cleanup(func() { db.Close() })
	serverSide, clientSide := net.Pipe()
	go serve(db, serverSide)
	t.Cleanup(func() { clientSide.Close() })

	// The write blocks until the server consumes it (pipe semantics),
	// and the server stops reading once the line exceeds the limit —
	// so write concurrently and ignore the resulting pipe error.
	go func() {
		big := strings.Repeat("x", maxLineBytes+1<<16)
		clientSide.Write([]byte(big))
		clientSide.Write([]byte("\n"))
	}()
	sc := bufio.NewScanner(clientSide)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	if !sc.Scan() {
		t.Fatalf("connection closed with no response (err %v)", sc.Err())
	}
	if got := sc.Text(); got != "ERR line too long" {
		t.Fatalf("response = %q", got)
	}
}

// TestMaxConnsShedding checks the connection budget: with maxConns=1
// and one session held open, the next connection is refused with
// "ERR overloaded" instead of queueing, and a slot frees on close.
func TestMaxConnsShedding(t *testing.T) {
	db := hana.MustOpen(hana.Options{})
	t.Cleanup(func() { db.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(db, ln, serverOptions{maxConns: 1})
	go srv.run()
	t.Cleanup(srv.shutdown)
	addr := ln.Addr().String()

	dial := func() (net.Conn, *bufio.Scanner) {
		t.Helper()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		return c, bufio.NewScanner(c)
	}

	first, firstSc := dial()
	defer first.Close()
	fmt.Fprintln(first, "SQL CREATE TABLE t (id INT PRIMARY KEY)")
	if !firstSc.Scan() || firstSc.Text() != "OK 0" {
		t.Fatalf("first session: %q", firstSc.Text())
	}

	second, secondSc := dial()
	if !secondSc.Scan() || secondSc.Text() != "ERR overloaded" {
		t.Fatalf("second session: %q (err %v)", secondSc.Text(), secondSc.Err())
	}
	second.Close()

	// Releasing the first session frees the slot.
	fmt.Fprintln(first, "QUIT")
	firstSc.Scan()
	first.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		third, thirdSc := dial()
		fmt.Fprintln(third, "SQL SELECT COUNT(*) FROM t")
		ok := thirdSc.Scan() && thirdSc.Text() == "ROW 0"
		third.Close()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after first session closed")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGracefulDrain runs writers against a persistent server, drains
// it mid-workload, and verifies (a) new connections are refused,
// (b) run/shutdown return promptly, and (c) every acknowledged insert
// survives a restart from disk — acked writes are never lost.
func TestGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	db := hana.MustOpen(hana.Options{Dir: dir, AutoMerge: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(db, ln, serverOptions{
		maxConns:     16,
		idleTimeout:  time.Minute,
		writeTimeout: 10 * time.Second,
		drainTimeout: 10 * time.Second,
	})
	runDone := make(chan struct{})
	go func() { srv.run(); close(runDone) }()
	addr := ln.Addr().String()

	setup, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	setupSc := bufio.NewScanner(setup)
	fmt.Fprintln(setup, "SQL CREATE TABLE kv (id INT PRIMARY KEY, v VARCHAR)")
	if !setupSc.Scan() || setupSc.Text() != "OK 0" {
		t.Fatalf("CREATE TABLE: %q", setupSc.Text())
	}
	fmt.Fprintln(setup, "QUIT")
	setupSc.Scan()
	setup.Close()

	// Writers insert disjoint key ranges and record which inserts the
	// server acknowledged before the connection went away.
	const writers = 4
	acked := make([][]int64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			for i := int64(0); ; i++ {
				key := int64(w)*1_000_000 + i
				if _, err := fmt.Fprintf(conn, "SQL INSERT INTO kv VALUES (%d, 'v%d')\n", key, key); err != nil {
					return
				}
				if !sc.Scan() {
					return
				}
				if sc.Text() == "OK 1" {
					acked[w] = append(acked[w], key)
				}
			}
		}(w)
	}

	time.Sleep(100 * time.Millisecond) // let the workload run
	srv.shutdown()
	select {
	case <-runDone:
	case <-time.After(10 * time.Second):
		t.Fatal("accept loop did not stop")
	}
	wg.Wait()

	// The drained server refuses new connections.
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("dial succeeded after drain")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	total := 0
	for _, keys := range acked {
		total += len(keys)
	}
	if total == 0 {
		t.Fatal("no insert was acknowledged before the drain")
	}

	// Restart from disk: every acknowledged key must be present.
	db2 := hana.MustOpen(hana.Options{Dir: dir})
	defer db2.Close()
	tab := db2.Table("kv")
	if tab == nil {
		t.Fatal("table lost across restart")
	}
	v := tab.View(nil)
	defer v.Close()
	for w, keys := range acked {
		for _, key := range keys {
			if v.Get(hana.Int(key)) == nil {
				t.Fatalf("writer %d: acked key %d lost across restart (%d acked total)", w, key, total)
			}
		}
	}
}
