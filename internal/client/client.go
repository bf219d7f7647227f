// Package client is a reconnecting client for hanaserver's line
// protocol. It wraps one logical session over however many TCP
// connections a flaky network forces: transport failures surface as a
// typed ErrTransport distinct from server-reported "ERR ..." lines,
// retriable commands get jittered-backoff redelivery on a fresh
// connection, and prepared statements registered through Prepare are
// replayed after every reconnect so EXECUTE keeps working.
//
// Retry safety is the caller's contract: a command whose response was
// lost may or may not have executed, so only idempotent operations —
// or ones whose duplicate effects the caller reconciles (duplicate
// key on a retried INSERT, zero rows on a retried DELETE) — may go
// through DoRetry. Transactional sequences (BEGIN ... COMMIT) must
// not: a reconnect lands on a brand-new server session and the old
// transaction is rolled back with it.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"
)

// ErrTransport wraps every connection-level failure (dial, send,
// or a connection dying mid-response); match with errors.Is.
var ErrTransport = errors.New("client: transport failure")

// ErrClosed is returned by operations on a Close()d client.
var ErrClosed = errors.New("client: closed")

// ServerError is a server-reported "ERR ..." response: the command
// definitively reached the server and was rejected, so it is never
// retried.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return e.Msg }

// maxLineBytes mirrors the server's line cap.
const maxLineBytes = 1 << 20

// Config configures a client.
type Config struct {
	// Addr is the server address.
	Addr string
	// Dial overrides the transport (nil = net.Dial "tcp"). The chaos
	// harness injects netfault here.
	Dial func(addr string) (net.Conn, error)
	// MaxRetries bounds redelivery attempts per DoRetry call: n > 0
	// allows n retries after the first attempt, 0 means the default
	// (8), and a negative value retries until the command gets a
	// definitive answer — what an oracle-verified workload needs,
	// since giving up leaves the outcome unknown.
	MaxRetries int
	// BackoffBase is the first retry delay (default 1ms); successive
	// retries double it up to BackoffMax (default 100ms), each with
	// full jitter.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed roots the jitter PRNG so seeded harness runs stay
	// reproducible (0 = 1).
	Seed int64
	// OnReconnect, when set, observes every successful reconnect with
	// the attempt count and the transport error that forced it.
	OnReconnect func(attempt int, cause error)
}

func (c Config) maxRetries() int {
	switch {
	case c.MaxRetries < 0:
		return -1
	case c.MaxRetries == 0:
		return 8
	default:
		return c.MaxRetries
	}
}

func (c Config) backoffBase() time.Duration {
	if c.BackoffBase > 0 {
		return c.BackoffBase
	}
	return time.Millisecond
}

func (c Config) backoffMax() time.Duration {
	if c.BackoffMax > 0 {
		return c.BackoffMax
	}
	return 100 * time.Millisecond
}

type prep struct{ name, cmd string }

// Client is one logical protocol session. Methods are serialized by
// an internal mutex; the intended use is still one goroutine per
// client, matching one server session per connection.
type Client struct {
	cfg Config

	mu       sync.Mutex
	conn     net.Conn
	sc       *bufio.Scanner
	w        *bufio.Writer
	prepared []prep
	closed   bool
	rng      *rand.Rand
	dropErr  error // transport error that killed the last connection

	reconnects uint64
	retries    uint64
}

// Dial connects a new client. The initial connection attempt gets the
// same retry budget as DoRetry, so a server still coming up does not
// fail the whole run.
func Dial(cfg Config) (*Client, error) {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	c := &Client{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	for attempt := 0; ; attempt++ {
		if err = c.connectLocked(); err == nil {
			return c, nil
		}
		if max := cfg.maxRetries(); max >= 0 && attempt >= max {
			return nil, err
		}
		c.sleepLocked(attempt)
	}
}

// connectLocked (re)establishes the connection and replays recorded
// prepared statements. Caller holds c.mu.
func (c *Client) connectLocked() error {
	dial := c.cfg.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	conn, err := dial(c.cfg.Addr)
	if err != nil {
		return fmt.Errorf("%w: dial %s: %v", ErrTransport, c.cfg.Addr, err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<16), maxLineBytes)
	c.conn, c.sc, c.w = conn, sc, bufio.NewWriter(conn)
	for _, p := range c.prepared {
		if _, err := c.exchangeLocked(p.cmd); err != nil {
			c.dropLocked()
			return fmt.Errorf("replay %s: %w", p.name, err)
		}
	}
	return nil
}

// dropLocked discards the dead connection so the next command dials
// fresh. Caller holds c.mu.
func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn, c.sc, c.w = nil, nil, nil
}

// sleepLocked backs off before retry attempt+1 with full jitter.
func (c *Client) sleepLocked(attempt int) {
	d := c.cfg.backoffBase() << attempt
	if max := c.cfg.backoffMax(); d > max || d <= 0 {
		d = max
	}
	time.Sleep(time.Duration(c.rng.Int63n(int64(d))) + c.cfg.backoffBase()/2)
}

// exchangeLocked sends one command and reads through its terminator
// line ("OK...", "ERR...", or "END"). Transport failures wrap
// ErrTransport; a lost connection mid-response counts too, because
// the response (and hence the command's outcome) is unknown.
func (c *Client) exchangeLocked(cmd string) ([]string, error) {
	if _, err := fmt.Fprintln(c.w, cmd); err != nil {
		return nil, fmt.Errorf("%w: send: %v", ErrTransport, err)
	}
	if err := c.w.Flush(); err != nil {
		return nil, fmt.Errorf("%w: send: %v", ErrTransport, err)
	}
	var out []string
	for c.sc.Scan() {
		line := c.sc.Text()
		out = append(out, line)
		if line == "END" || strings.HasPrefix(line, "OK") || strings.HasPrefix(line, "ERR") {
			return out, nil
		}
	}
	err := c.sc.Err()
	if err == nil {
		err = errors.New("connection closed mid-response")
	}
	return nil, fmt.Errorf("%w: %q: %v", ErrTransport, firstWord(cmd), err)
}

func firstWord(cmd string) string {
	if i := strings.IndexAny(cmd, " \t"); i >= 0 {
		return cmd[:i]
	}
	return cmd
}

// Do sends one command on the current connection without retry. On a
// transport failure the connection is dropped (the next command
// reconnects) and the error wraps ErrTransport. A server "ERR ..."
// response is returned in lines with a nil error — use DoOK when the
// caller wants it as a typed error.
func (c *Client) Do(cmd string) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.doLocked(cmd)
}

func (c *Client) doLocked(cmd string) ([]string, error) {
	if c.closed {
		return nil, ErrClosed
	}
	if c.conn == nil {
		if err := c.connectLocked(); err != nil {
			return nil, err
		}
		c.reconnects++
		if c.cfg.OnReconnect != nil {
			c.cfg.OnReconnect(int(c.reconnects), c.dropErr)
		}
		c.dropErr = nil
	}
	lines, err := c.exchangeLocked(cmd)
	if err != nil {
		c.dropLocked()
		c.dropErr = err
		return nil, err
	}
	return lines, nil
}

// DoRetry sends a command, redelivering it over fresh connections
// with jittered backoff while it keeps failing at the transport
// level. Only safe for idempotent or caller-reconciled commands; see
// the package comment.
func (c *Client) DoRetry(cmd string) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.retries++
		}
		lines, err := c.doLocked(cmd)
		if err == nil {
			return lines, nil
		}
		if !errors.Is(err, ErrTransport) {
			return nil, err
		}
		lastErr = err
		if max := c.cfg.maxRetries(); max >= 0 && attempt >= max {
			return nil, lastErr
		}
		c.sleepLocked(attempt)
	}
}

// okOf converts a response whose terminator must be "OK..." into the
// OK line, turning "ERR ..." into a *ServerError.
func okOf(cmd string, lines []string) (string, error) {
	last := lines[len(lines)-1]
	if strings.HasPrefix(last, "OK") {
		return last, nil
	}
	return "", &ServerError{Msg: fmt.Sprintf("%s: %s", firstWord(cmd), strings.TrimPrefix(last, "ERR "))}
}

// DoOK runs a single-line-response command without retry.
func (c *Client) DoOK(cmd string) (string, error) {
	lines, err := c.Do(cmd)
	if err != nil {
		return "", err
	}
	return okOf(cmd, lines)
}

// DoRetryOK is DoOK with transport-level retry.
func (c *Client) DoRetryOK(cmd string) (string, error) {
	lines, err := c.DoRetry(cmd)
	if err != nil {
		return "", err
	}
	return okOf(cmd, lines)
}

// Prepare registers a named prepared statement: it is sent now (with
// retry) and replayed automatically after every reconnect, so EXECUTE
// survives connection loss.
func (c *Client) Prepare(name, sqlText string) error {
	cmd := fmt.Sprintf("PREPARE %s %s", name, sqlText)
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.retries++
		}
		lines, err := c.doLocked(cmd)
		if err == nil {
			if _, serr := okOf(cmd, lines); serr != nil {
				return serr
			}
			c.prepared = append(c.prepared, prep{name: name, cmd: cmd})
			return nil
		}
		if !errors.Is(err, ErrTransport) {
			return err
		}
		lastErr = err
		if max := c.cfg.maxRetries(); max >= 0 && attempt >= max {
			return lastErr
		}
		c.sleepLocked(attempt)
	}
}

// Stats returns cumulative reconnect and retry counts.
func (c *Client) Stats() (reconnects, retries uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects, c.retries
}

// Close sends a best-effort QUIT and tears the connection down.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn != nil {
		_, _ = c.exchangeLocked("QUIT")
		c.conn.Close()
		c.conn, c.sc, c.w = nil, nil, nil
	}
	return nil
}
