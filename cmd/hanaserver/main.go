// Command hanaserver exposes a database over a minimal line protocol
// on TCP — the "connection and session management layer" slot of the
// paper's architecture (Fig. 2), radically simplified. Every
// connection is a session with an optional open transaction
// (autocommit otherwise).
//
// Rows are read and written only through SQL (see below); the other
// commands merge and inspect tables, control the session and its
// transaction, and expose observability. Protocol (one command per
// line, fields separated by spaces or tabs; VARCHAR values use single
// quotes):
//
//	MERGE <table>
//	STATS <table>
//	METRICS [<table>]
//	TRACE [<table>|<stmt-id>] [<n>]
//	EXPLAIN [ANALYZE] <statement>
//	SLOWLOG [<n>]
//	BEGIN [STMT] | COMMIT | ABORT
//	SAVEPOINT
//	SESSIONS
//	KILL <id>
//	SET STMT_TIMEOUT <duration> | SET MEM_BUDGET <bytes> | SET SLOW_QUERY_MS <ms>
//	QUIT
//
// SESSIONS lists live sessions (id, remote address, age, state; an
// active session shows the running statement's id and elapsed time);
// KILL cancels a session's in-flight statement mid-scan and ends the
// session. SET bounds this session's subsequent SQL statements with a
// wall-clock timeout or memory budget on top of the server-wide
// -stmt-timeout/-mem-budget defaults, or overrides the server-wide
// -slow-query capture threshold (0 disables capture).
//
// EXPLAIN renders the optimized plan without executing; EXPLAIN
// ANALYZE executes the statement and annotates every plan operator
// with its actuals (rows, batches, wall time, workers/morsels,
// pushdown and decode-cache effectiveness, budget bytes). SLOWLOG
// replays the last n captured slow statements — text, outcome,
// duration, and the annotated plan. Every statement records
// stmt-start/stmt-end span events keyed "<session>.<seq>"; TRACE with
// a statement id (or table name) filters the event ring to one
// query's lifecycle.
//
// SQL statements ride the same line protocol (the rest of the line is
// handed to the SQL compiler verbatim, so SQL's own quoting applies):
//
//	SQL <statement>
//	PREPARE <name> <statement>
//	EXECUTE <name> [<param>...]
//	DEALLOCATE <name>
//
// SQL SELECTs answer with ROW lines and "END"; DML answers "OK <n>"
// with the affected-row count. Statements run inside the session's
// open BEGIN/COMMIT transaction, or autocommit without one. PREPARE
// compiles once into the shared plan cache (keyed on normalized text)
// and EXECUTE binds positional parameters parsed per the statement's
// inferred kinds.
//
// Responses: "OK[ detail]", "ERR <msg>", or row lines followed by
// "END". METRICS dumps Prometheus-style text (optionally restricted
// to one table's series) and TRACE replays the last n lifecycle
// events; both end with "END".
//
// With -obs-addr set, the same metrics are served over HTTP at
// /metrics alongside the standard net/http/pprof handlers under
// /debug/pprof/, plus /healthz — 200 while the database is open and
// the server is accepting connections, 503 once draining — and a
// hana_build_info{version,go} gauge for scrape-side version tracking.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	hana "repro"
)

// maxLineBytes bounds a single protocol line; longer lines get an
// explicit "ERR line too long" instead of a silent disconnect.
const maxLineBytes = 1 << 20

func main() {
	addr := flag.String("addr", "127.0.0.1:7654", "listen address")
	dir := flag.String("dir", "", "persistence directory (empty = in-memory)")
	maxConns := flag.Int("max-conns", 256, "maximum concurrent connections; excess get ERR overloaded (0 = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "per-connection idle read deadline (0 = none)")
	writeTimeout := flag.Duration("write-timeout", 10*time.Second, "per-response write deadline (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown wait for in-flight commands")
	throttleRows := flag.Int("throttle-rows", 0, "delta-backlog high-watermark applied to tables created through SQL: writes beyond it are delayed (0 = off)")
	overloadRows := flag.Int("overload-rows", 0, "delta-backlog ceiling applied to tables created through SQL: writes beyond it get ERR overloaded (0 = off)")
	obsAddr := flag.String("obs-addr", "", "HTTP listen address serving /metrics and /debug/pprof/ (empty = disabled)")
	stmtTimeout := flag.Duration("stmt-timeout", 0, "wall-clock budget per SQL statement; exceeding it returns ERR statement timeout (0 = none)")
	memBudget := flag.Int64("mem-budget", 0, "memory budget in bytes per SQL statement, charged against hash builds, aggregation state, and decode caches (0 = unlimited)")
	slowQuery := flag.Duration("slow-query", 0, "slow-query threshold: SQL statements at or above it are captured (text, plan, actuals, outcome) in the SLOWLOG ring (0 = off)")
	flag.Parse()

	reg := hana.NewMetrics()
	reg.Gauge("hana_build_info",
		hana.Label("version", buildVersion),
		hana.Label("go", runtime.Version())).Set(1)
	db := hana.MustOpen(hana.Options{Dir: *dir, AutoMerge: true, Obs: reg,
		Logger: func(event string, kv ...any) { log.Printf("hanaserver: %s %v", event, kv) }})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		db.Close()
		log.Fatalf("hanaserver: %v", err)
	}
	log.Printf("hanaserver: listening on %s (dir=%q)", *addr, *dir)

	srv := newServer(db, ln, serverOptions{
		maxConns:     *maxConns,
		idleTimeout:  *idleTimeout,
		writeTimeout: *writeTimeout,
		drainTimeout: *drainTimeout,
		throttleRows: *throttleRows,
		overloadRows: *overloadRows,
		stmtTimeout:  *stmtTimeout,
		memBudget:    *memBudget,
		slowQuery:    *slowQuery,
	})

	var obsSrv *http.Server
	if *obsAddr != "" {
		obsLn, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			db.Close()
			log.Fatalf("hanaserver: obs listener: %v", err)
		}
		obsSrv = &http.Server{Handler: obsMux(reg, srv.ready)}
		go func() {
			if err := obsSrv.Serve(obsLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("hanaserver: obs server: %v", err)
			}
		}()
		log.Printf("hanaserver: observability on http://%s/metrics", obsLn.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("hanaserver: draining")
		srv.shutdown()
	}()

	srv.run()
	srv.shutdown() // idempotent; covers listener-error exits
	if obsSrv != nil {
		obsSrv.Close()
	}
	if err := db.Close(); err != nil {
		log.Printf("hanaserver: close: %v", err)
	}
}

// buildVersion identifies the binary in hana_build_info; override at
// link time with -ldflags "-X main.buildVersion=v1.2.3".
var buildVersion = "dev"

// obsMux builds the observability HTTP handler: Prometheus-style
// metrics at /metrics, a readiness probe at /healthz (ready == nil
// means always healthy), and the standard pprof surface at
// /debug/pprof/.
func obsMux(reg *hana.MetricsRegistry, ready func() error) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WriteProm(w); err != nil {
			log.Printf("hanaserver: /metrics: %v", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if ready != nil {
			if err := ready(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serverOptions are the overload-protection and shutdown knobs.
type serverOptions struct {
	// maxConns bounds concurrent sessions; excess connections are
	// refused with "ERR overloaded" (load shedding, not queueing).
	maxConns int
	// idleTimeout closes connections with no command activity.
	idleTimeout time.Duration
	// writeTimeout bounds each response flush so a stalled client
	// cannot pin a session goroutine forever.
	writeTimeout time.Duration
	// drainTimeout is how long shutdown waits for in-flight commands
	// before force-closing the remaining connections.
	drainTimeout time.Duration
	// throttleRows/overloadRows seed TableConfig admission-control
	// watermarks for tables created through SQL.
	throttleRows, overloadRows int
	// stmtTimeout/memBudget are the server-wide per-statement
	// execution budgets installed on the shared SQL engine.
	stmtTimeout time.Duration
	memBudget   int64
	// slowQuery is the server-wide slow-query capture threshold
	// installed on the shared SQL engine (0 = off).
	slowQuery time.Duration
}

// server owns the listener and the connection life cycle: admission
// (semaphore), per-connection deadlines, and graceful drain.
type server struct {
	db   *hana.DB
	ln   net.Listener
	opts serverOptions
	// sqlEng is shared across sessions so all connections hit one plan
	// cache (statements are keyed on normalized text).
	sqlEng *hana.SQLEngine

	sem      chan struct{} // nil = unlimited
	draining atomic.Bool

	// reg tracks live sessions for SESSIONS/KILL; met counts
	// lifecycle outcomes (kills, timeouts, budget rejections).
	reg *sessionRegistry
	met lifecycleMetrics

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func newServer(db *hana.DB, ln net.Listener, opts serverOptions) *server {
	s := &server{db: db, ln: ln, opts: opts, conns: map[net.Conn]struct{}{},
		sqlEng: newSQLEngine(db, opts),
		reg:    newSessionRegistry(),
		met:    newLifecycleMetrics(db.Metrics())}
	if opts.maxConns > 0 {
		s.sem = make(chan struct{}, opts.maxConns)
	}
	return s
}

// newSQLEngine builds the session-shared SQL engine. It fixes the
// physical defaults and admission watermarks of every table created
// over the wire, and installs the server-wide statement budgets.
func newSQLEngine(db *hana.DB, opts serverOptions) *hana.SQLEngine {
	eng := hana.NewSQLEngine(db, hana.TableConfig{
		CheckUnique: true, Compress: true, CompactDicts: true,
		ThrottleRows: opts.throttleRows, OverloadRows: opts.overloadRows,
	})
	if opts.stmtTimeout > 0 || opts.memBudget > 0 {
		eng.SetLimits(hana.SQLLimits{Timeout: opts.stmtTimeout, MemBytes: opts.memBudget})
	}
	if opts.slowQuery > 0 {
		eng.SetSlowQuery(opts.slowQuery)
	}
	return eng
}

// ready is the /healthz readiness signal: the database is open (its
// redo log attached for its whole open lifetime when persistent) and
// the server is still accepting connections.
func (s *server) ready() error {
	if s.draining.Load() {
		return errors.New("draining")
	}
	return s.db.Ready()
}

// run accepts connections until the listener closes. Transient accept
// errors (a full accept queue, file-descriptor pressure) back off with
// doubling delay instead of killing the server; only a closed listener
// or a non-network error ends the loop.
func (s *server) run() {
	const minBackoff = 5 * time.Millisecond
	backoff := minBackoff
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) {
				log.Printf("hanaserver: accept: %v (retrying in %v)", err, backoff)
				time.Sleep(backoff)
				if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				continue
			}
			log.Printf("hanaserver: accept: %v", err)
			return
		}
		backoff = minBackoff
		s.admit(conn)
	}
}

// admit applies the connection budget and starts the session
// goroutine, or sheds the connection with a one-line refusal.
func (s *server) admit(conn net.Conn) {
	if s.draining.Load() {
		refuse(conn, "ERR shutting down")
		return
	}
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
		default:
			refuse(conn, "ERR overloaded")
			return
		}
	}
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() {
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			if s.sem != nil {
				<-s.sem
			}
		}()
		s.serveConn(conn)
	}()
}

func refuse(conn net.Conn, msg string) {
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	fmt.Fprintf(conn, "%s\n", msg)
	conn.Close()
}

// shutdown drains the server: stop accepting, nudge idle readers so
// they observe the drain, wait for in-flight commands up to
// drainTimeout, then force-close stragglers. Safe to call repeatedly.
func (s *server) shutdown() {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	s.ln.Close()
	// Sessions blocked in a read observe the drain via an imminent
	// read deadline; sessions mid-command see the draining flag when
	// the command completes.
	nudge := time.Now().Add(50 * time.Millisecond)
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(nudge)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timeout := s.opts.drainTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	select {
	case <-done:
	case <-time.After(timeout):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
}

type session struct {
	db  *hana.DB
	eng *hana.SQLEngine
	txn *hana.Txn
	// prepared holds this session's named PREPAREd statements.
	prepared map[string]*hana.SQLPrepared
	// entry is this session's registry record; its context is
	// cancelled by KILL and threads through every statement.
	entry *sessionEntry
	reg   *sessionRegistry
	met   lifecycleMetrics
	// limits are this session's SET overrides, layered on top of the
	// engine-wide defaults (the tighter bound wins).
	limits hana.SQLLimits
	// slowQuery/slowSet are this session's SET SLOW_QUERY_MS override
	// of the engine-wide slow-query threshold (slowSet distinguishes
	// "explicitly 0 = off" from "not set").
	slowQuery time.Duration
	slowSet   bool
}

// serve handles one connection with no deadlines or connection budget
// — the bare protocol loop, kept for in-process use and tests.
func serve(db *hana.DB, conn net.Conn) {
	s := &server{db: db, sqlEng: newSQLEngine(db, serverOptions{}),
		reg: newSessionRegistry(), met: newLifecycleMetrics(db.Metrics())}
	s.serveConn(conn)
}

// serveConn runs the protocol loop under the server's deadlines and
// drain flag (both inert on a zero-value server).
func (s *server) serveConn(conn net.Conn) {
	defer conn.Close()
	entry := s.reg.add(conn)
	defer s.reg.remove(entry.id)
	sess := &session{
		db:    s.db,
		eng:   s.sqlEng,
		entry: entry,
		reg:   s.reg,
		met:   s.met,
	}
	defer func() {
		if sess.txn != nil {
			sess.db.Abort(sess.txn)
		}
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<16), maxLineBytes)
	// A torn final line (connection cut mid-write, no terminator) must
	// never execute as a command: the default ScanLines emits the
	// partial tail at EOF, this split drops it.
	sc.Split(scanFullLines)
	w := bufio.NewWriter(conn)
	defer w.Flush()
	flush := func() error {
		if s.opts.writeTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.opts.writeTimeout))
			defer conn.SetWriteDeadline(time.Time{})
		}
		return w.Flush()
	}
	for {
		if s.opts.idleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.idleTimeout))
		}
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "QUIT") {
			fmt.Fprintln(w, "OK bye")
			flush()
			return
		}
		sess.handle(w, line)
		if flush() != nil {
			return
		}
		if entry.killed() {
			// The killing command's ERR (or this command's response)
			// is out; the session ends instead of reading more work.
			return
		}
		if s.draining.Load() {
			// The in-flight command got its response; the session ends
			// here rather than accepting new work during drain.
			return
		}
	}
	if err := sc.Err(); err != nil {
		var ne net.Error
		switch {
		case errors.Is(err, bufio.ErrTooLong):
			// An oversized line used to drop the connection silently;
			// tell the client what happened before closing.
			fmt.Fprintln(w, "ERR line too long")
			flush()
		case errors.As(err, &ne) && ne.Timeout():
			// Idle or drain deadline: quiet close.
		default:
			log.Printf("hanaserver: read: %v", err)
		}
	}
}

func (s *session) handle(w *bufio.Writer, line string) {
	// SQL-carrying commands keep the rest of the line verbatim: SQL has
	// its own quoting and must not pass through tokenize.
	if rest, ok := cutKeyword(line, "SQL"); ok {
		s.sqlExec(w, rest)
		return
	}
	if rest, ok := cutKeyword(line, "PREPARE"); ok {
		s.sqlPrepare(w, rest)
		return
	}
	if rest, ok := cutKeyword(line, "EXECUTE"); ok {
		s.sqlExecute(w, rest)
		return
	}
	if rest, ok := cutKeyword(line, "DEALLOCATE"); ok {
		s.sqlDeallocate(w, rest)
		return
	}
	if rest, ok := cutKeyword(line, "EXPLAIN"); ok {
		s.sqlExplain(w, rest)
		return
	}
	fields, err := tokenize(line)
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	cmd := strings.ToUpper(fields[0])
	args := fields[1:]
	switch cmd {
	case "BEGIN":
		if s.txn != nil {
			fmt.Fprintln(w, "ERR transaction already open")
			return
		}
		level := hana.TxnSnapshot
		if len(args) > 0 && strings.EqualFold(args[0], "STMT") {
			level = hana.StmtSnapshot
		}
		s.txn = s.db.Begin(level)
		fmt.Fprintln(w, "OK")
	case "COMMIT":
		if s.txn == nil {
			fmt.Fprintln(w, "ERR no transaction")
			return
		}
		err := s.db.Commit(s.txn)
		s.txn = nil
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		fmt.Fprintln(w, "OK")
	case "ABORT":
		if s.txn == nil {
			fmt.Fprintln(w, "ERR no transaction")
			return
		}
		s.db.Abort(s.txn)
		s.txn = nil
		fmt.Fprintln(w, "OK")
	case "SAVEPOINT":
		if err := s.db.Savepoint(); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		fmt.Fprintln(w, "OK")
	case "SESSIONS":
		for _, line := range s.reg.list() {
			fmt.Fprintln(w, line)
		}
		fmt.Fprintln(w, "END")
	case "KILL":
		if len(args) != 1 {
			fmt.Fprintln(w, "ERR usage: KILL <id>")
			return
		}
		id, err := strconv.ParseInt(args[0], 10, 64)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		if !s.reg.kill(id) {
			fmt.Fprintf(w, "ERR no session %d\n", id)
			return
		}
		fmt.Fprintln(w, "OK")
	case "SET":
		s.set(w, args)
	case "METRICS":
		// Optionally restricted to one table's series. A database
		// opened without a registry dumps nothing but still ends
		// cleanly.
		var err error
		if len(args) > 0 {
			err = s.db.Metrics().WritePromTable(w, args[0])
		} else {
			err = s.db.Metrics().WriteProm(w)
		}
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		fmt.Fprintln(w, "END")
	case "TRACE":
		// TRACE [<table>|<stmt-id>] [<n>]: integer arguments bound the
		// count, anything else filters by table name or statement id
		// (statement ids like "3.1" never parse as integers).
		n := 0 // 0 = everything still in the ring
		filter := ""
		for _, a := range args {
			if v, err := strconv.Atoi(a); err == nil {
				if v < 0 {
					fmt.Fprintln(w, "ERR usage: TRACE [<table>|<stmt-id>] [<n>]")
					return
				}
				n = v
				continue
			}
			filter = a
		}
		var events []hana.TraceEvent
		if filter != "" {
			// Filter over the whole ring, then keep the most recent n.
			for _, e := range s.db.TraceEvents(0) {
				if e.Table == filter || e.Stmt == filter {
					events = append(events, e)
				}
			}
			if n > 0 && len(events) > n {
				events = events[len(events)-n:]
			}
		} else {
			events = s.db.TraceEvents(n)
		}
		for _, e := range events {
			fmt.Fprintln(w, e.String())
		}
		fmt.Fprintln(w, "END")
	case "SLOWLOG":
		n := 0 // 0 = everything the ring retains
		if len(args) > 0 {
			v, err := strconv.Atoi(args[0])
			if err != nil || v < 0 {
				fmt.Fprintln(w, "ERR usage: SLOWLOG [<n>]")
				return
			}
			n = v
		}
		for _, e := range s.eng.SlowLog(n) {
			fmt.Fprintf(w, "ROW %s %s %s rows=%d affected=%d %q\n",
				e.Time.Format("15:04:05.000"), e.Dur.Round(time.Microsecond),
				e.Outcome, e.Rows, e.Affected, e.SQL)
			for _, pl := range strings.Split(strings.TrimRight(e.Plan, "\n"), "\n") {
				if pl != "" {
					fmt.Fprintln(w, "ROW   "+pl)
				}
			}
		}
		fmt.Fprintln(w, "END")
	case "MERGE", "STATS":
		if len(args) < 1 {
			fmt.Fprintln(w, "ERR missing table")
			return
		}
		t := s.db.Table(args[0])
		if t == nil {
			fmt.Fprintf(w, "ERR no table %q\n", args[0])
			return
		}
		if cmd == "STATS" {
			// The line is generated from TableStats by reflection
			// (WireString), so new stats fields reach the wire without a
			// second hand-maintained field list.
			fmt.Fprintf(w, "OK %s\n", t.Stats().WireString())
			return
		}
		if _, err := t.MergeL1(); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		if _, err := t.MergeMain(); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		fmt.Fprintln(w, "OK")
	default:
		fmt.Fprintf(w, "ERR unknown command %q\n", cmd)
	}
}

// ---- SQL over the wire ----

// cutKeyword reports whether line starts with the keyword (case-
// insensitive, followed by whitespace or end of line) and returns the
// trimmed remainder.
func cutKeyword(line, kw string) (string, bool) {
	if len(line) < len(kw) || !strings.EqualFold(line[:len(kw)], kw) {
		return "", false
	}
	rest := line[len(kw):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// set applies a per-session statement limit: SET STMT_TIMEOUT <dur>,
// SET MEM_BUDGET <bytes>, or SET SLOW_QUERY_MS <ms> (0 clears).
func (s *session) set(w *bufio.Writer, args []string) {
	if len(args) != 2 {
		fmt.Fprintln(w, "ERR usage: SET STMT_TIMEOUT <duration> | SET MEM_BUDGET <bytes> | SET SLOW_QUERY_MS <ms>")
		return
	}
	switch strings.ToUpper(args[0]) {
	case "SLOW_QUERY_MS":
		n, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil || n < 0 {
			fmt.Fprintf(w, "ERR bad millisecond count %q\n", args[1])
			return
		}
		s.slowQuery = time.Duration(n) * time.Millisecond
		s.slowSet = true
	case "STMT_TIMEOUT":
		d, err := time.ParseDuration(args[1])
		if err != nil || d < 0 {
			fmt.Fprintf(w, "ERR bad duration %q\n", args[1])
			return
		}
		s.limits.Timeout = d
	case "MEM_BUDGET":
		n, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil || n < 0 {
			fmt.Fprintf(w, "ERR bad byte count %q\n", args[1])
			return
		}
		s.limits.MemBytes = n
	default:
		fmt.Fprintf(w, "ERR unknown setting %q\n", args[0])
		return
	}
	fmt.Fprintln(w, "OK")
}

// stmtCtx derives the context one SQL statement runs under: the
// session's kill context plus this session's SET overrides. The
// engine layers its own (server-wide) limits inside ExecCtx, so the
// tighter of the two bounds wins.
func (s *session) stmtCtx() (context.Context, context.CancelFunc) {
	ctx := s.entry.ctx
	cancel := context.CancelFunc(func() {})
	if s.limits.Timeout > 0 {
		ctx, cancel = context.WithTimeoutCause(ctx, s.limits.Timeout, hana.ErrStatementTimeout)
	}
	ctx = hana.WithMemBudget(ctx, s.limits.MemBytes)
	if s.slowSet {
		ctx = hana.WithSlowQuery(ctx, s.slowQuery)
	}
	return ctx, cancel
}

// runStmt brackets one SQL statement: registry visibility for
// SESSIONS, the statement-latency histogram, lifecycle outcome
// counters (kills, timeouts, budget rejections), and the always-on
// stmt-start/stmt-end span pair keyed by the statement id — two ring
// writes per statement, cheap enough to leave unconditional.
func (s *session) runStmt(text string, fn func(ctx context.Context) (*hana.SQLResult, error)) (*hana.SQLResult, error) {
	ctx, cancel := s.stmtCtx()
	defer cancel()
	id := s.entry.beginStmt(text)
	defer s.entry.endStmt()
	ctx = hana.WithStmtID(ctx, id)
	reg := s.db.Metrics()
	reg.Trace(hana.TraceEvent{Kind: hana.EvStmtStart, Stmt: id, Detail: truncateStmt(text)})
	t0 := time.Now()
	start := s.met.stmtTimes.Start()
	res, err := fn(ctx)
	s.met.stmtTimes.Stop(start)
	err = mapCtxErr(ctx, err)
	s.met.observe(err)
	reg.Trace(hana.TraceEvent{Kind: hana.EvStmtEnd, Stmt: id,
		Dur: time.Since(t0), Detail: outcomeLabel(err)})
	return res, err
}

// truncateStmt bounds the SQL text carried in span events so a bulk
// INSERT cannot bloat the trace ring.
func truncateStmt(text string) string {
	const max = 120
	if len(text) <= max {
		return text
	}
	return text[:max] + "..."
}

// sqlExec runs one SQL statement inside the session transaction (or
// autocommit without one) and writes its result.
func (s *session) sqlExec(w *bufio.Writer, text string) {
	if text == "" {
		fmt.Fprintln(w, "ERR usage: SQL <statement>")
		return
	}
	res, err := s.runStmt(text, func(ctx context.Context) (*hana.SQLResult, error) {
		return s.eng.ExecCtx(ctx, s.txn, text)
	})
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	writeSQLResult(w, res)
}

// sqlExplain answers EXPLAIN [ANALYZE] <statement>: the plan comes
// back as ROW lines + END. Plain EXPLAIN renders the optimized plan
// without executing; ANALYZE executes the statement (inside the
// session transaction, under the session's limits, counted in the
// statement histogram like any other statement) and annotates every
// operator with its actuals.
func (s *session) sqlExplain(w *bufio.Writer, rest string) {
	if rest == "" {
		fmt.Fprintln(w, "ERR usage: EXPLAIN [ANALYZE] <statement>")
		return
	}
	var plan string
	if sqlText, ok := cutKeyword(rest, "ANALYZE"); ok {
		if sqlText == "" {
			fmt.Fprintln(w, "ERR usage: EXPLAIN [ANALYZE] <statement>")
			return
		}
		_, err := s.runStmt("EXPLAIN ANALYZE "+sqlText, func(ctx context.Context) (*hana.SQLResult, error) {
			p, res, err := s.eng.ExplainAnalyzeCtx(ctx, s.txn, sqlText)
			plan = p
			return res, err
		})
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
	} else {
		p, err := s.eng.Explain(rest)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		plan = p
	}
	for _, line := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
		fmt.Fprintln(w, "ROW "+line)
	}
	fmt.Fprintln(w, "END")
}

// writeSQLResult renders a statement outcome: ROW lines + END for
// queries, "OK <affected>" for DML and DDL.
func writeSQLResult(w *bufio.Writer, res *hana.SQLResult) {
	if res.Cols == nil {
		fmt.Fprintf(w, "OK %d\n", res.Affected)
		return
	}
	for _, line := range hana.RenderSQLRows(res.Rows) {
		fmt.Fprintln(w, "ROW "+line)
	}
	fmt.Fprintln(w, "END")
}

func (s *session) sqlPrepare(w *bufio.Writer, rest string) {
	name, text := cutWord(rest)
	if name == "" || text == "" {
		fmt.Fprintln(w, "ERR usage: PREPARE <name> <statement>")
		return
	}
	p, err := s.eng.Prepare(text)
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	if s.prepared == nil {
		s.prepared = map[string]*hana.SQLPrepared{}
	}
	s.prepared[name] = p
	fmt.Fprintf(w, "OK params=%d\n", p.NumParams())
}

func (s *session) sqlExecute(w *bufio.Writer, rest string) {
	if rest == "" {
		fmt.Fprintln(w, "ERR usage: EXECUTE <name> [<param>...]")
		return
	}
	fields, err := tokenize(rest)
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	p := s.prepared[fields[0]]
	if p == nil {
		fmt.Fprintf(w, "ERR no prepared statement %q\n", fields[0])
		return
	}
	kinds := p.ParamKinds()
	if len(fields)-1 != len(kinds) {
		fmt.Fprintf(w, "ERR statement %q wants %d parameters, got %d\n", fields[0], len(kinds), len(fields)-1)
		return
	}
	params := make([]hana.Value, len(kinds))
	for i, tok := range fields[1:] {
		// Wire parameters parse per the statement's inferred kinds.
		v, err := parseValue(kinds[i], tok)
		if err != nil {
			fmt.Fprintf(w, "ERR parameter %d: %v\n", i+1, err)
			return
		}
		params[i] = v
	}
	res, err := s.runStmt("EXECUTE "+fields[0], func(ctx context.Context) (*hana.SQLResult, error) {
		return p.ExecCtx(ctx, s.txn, params...)
	})
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	writeSQLResult(w, res)
}

func (s *session) sqlDeallocate(w *bufio.Writer, name string) {
	if name == "" {
		fmt.Fprintln(w, "ERR usage: DEALLOCATE <name>")
		return
	}
	if _, ok := s.prepared[name]; !ok {
		fmt.Fprintf(w, "ERR no prepared statement %q\n", name)
		return
	}
	delete(s.prepared, name)
	fmt.Fprintln(w, "OK")
}

// cutWord splits s at its first space or tab into the leading word and
// the trimmed remainder.
func cutWord(s string) (word, rest string) {
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i+1:])
}

// tokenize splits a command line at spaces and tabs, honoring
// single-quoted strings.
func tokenize(line string) ([]string, error) {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '\'':
			if inQuote {
				out = append(out, "'"+cur.String())
				cur.Reset()
				inQuote = false
			} else {
				flush()
				inQuote = true
			}
		case (c == ' ' || c == '\t') && !inQuote:
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote")
	}
	flush()
	if len(out) == 0 {
		return nil, fmt.Errorf("empty command")
	}
	return out, nil
}

// parseValue parses one EXECUTE parameter of the given kind: the bare
// word NULL is NULL, and a quoted token carries the leading ' that
// tokenize keeps.
func parseValue(kind hana.Kind, tok string) (hana.Value, error) {
	if tok == "NULL" {
		return hana.Null, nil
	}
	tok = strings.TrimPrefix(tok, "'")
	switch kind {
	case hana.Int64:
		n, err := strconv.ParseInt(tok, 10, 64)
		return hana.Int(n), err
	case hana.Float64:
		f, err := strconv.ParseFloat(tok, 64)
		return hana.Float(f), err
	case hana.String:
		return hana.Str(tok), nil
	case hana.DateKind:
		n, err := strconv.ParseInt(tok, 10, 64)
		return hana.Date(n), err
	case hana.BoolKind:
		b, err := strconv.ParseBool(tok)
		return hana.Bool(b), err
	}
	return hana.Null, fmt.Errorf("unsupported kind")
}
