package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
)

// moduleRoot walks up from the working directory to the go.mod of the
// module under test; the benchmark builds the server from there.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "hanaserver")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("benchmark: no module root with cmd/hanaserver above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/hanaserver into binDir. Build time is not
// part of any metric.
func buildServer(root, binDir string) (string, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(binDir, "hanaserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hanaserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/hanaserver: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is a running hanaserver subprocess.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	log  bytes.Buffer
	// exited is closed once the process has been waited for; waitErr
	// is its exit status and may be read after that.
	exited  chan struct{}
	waitErr error
}

// servers tracks the server processes started and not yet reaped, so
// the exit path can assert none is left behind and the signal path can
// kill them.
var servers struct {
	mu   sync.Mutex
	live map[*serverProc]bool
}

func trackServer(s *serverProc, alive bool) {
	servers.mu.Lock()
	defer servers.mu.Unlock()
	if servers.live == nil {
		servers.live = map[*serverProc]bool{}
	}
	if alive {
		servers.live[s] = true
	} else {
		delete(servers.live, s)
	}
}

func liveServerCount() int {
	servers.mu.Lock()
	defer servers.mu.Unlock()
	return len(servers.live)
}

// killServers kills every tracked server and waits for it.
func killServers() {
	servers.mu.Lock()
	var all []*serverProc
	for s := range servers.live {
		all = append(all, s)
	}
	servers.mu.Unlock()
	for _, s := range all {
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// freeAddr reserves a loopback port by binding and releasing it; the
// server prints the address it was given, not the one it bound, so it
// cannot be asked to choose.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

const (
	serverReadyTimeout = 30 * time.Second
	serverStopTimeout  = 15 * time.Second
)

// startServer starts hanaserver on dir and returns once it answers a
// command: recovery of the directory is complete by then. The port is
// reserved and released before the server binds it, so a start that
// loses the port to another process is tried again.
func startServer(bin, dir string) (s *serverProc, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		if s, err = startServerOnce(bin, dir); err == nil {
			return s, nil
		}
	}
	return nil, err
}

func startServerOnce(bin, dir string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &serverProc{addr: addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr, "-dir", dir)
	s.cmd.Stdout = &s.log
	s.cmd.Stderr = &s.log
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	trackServer(s, true)
	go func() {
		s.waitErr = s.cmd.Wait()
		trackServer(s, false)
		close(s.exited)
	}()
	deadline := time.Now().Add(serverReadyTimeout)
	for {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("hanaserver exited before it was ready: %v\n%s", s.waitErr, s.log.String())
		default:
		}
		if conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond); err == nil {
			conn.Close()
			// One real round trip: the listener is up and sessions are served.
			c, err := client.Dial(client.Config{Addr: addr, MaxRetries: 1})
			if err == nil {
				_, err = c.Do("SESSIONS")
				c.Close()
				if err == nil {
					return s, nil
				}
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("hanaserver not ready on %s after %v\n%s", addr, serverReadyTimeout, s.log.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM (the server drains and closes its database) and
// waits for the process to exit, killing it if the drain hangs.
func (s *serverProc) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		if s.waitErr != nil {
			return fmt.Errorf("hanaserver exit: %v\n%s", s.waitErr, s.log.String())
		}
		return nil
	case <-time.After(serverStopTimeout):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("hanaserver did not drain within %v; killed", serverStopTimeout)
	}
}

// netCounter counts the bytes the wire sessions move, for
// client.bytes_per_op.
type netCounter struct {
	read, written atomic.Int64
}

func (n *netCounter) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, n: n}, nil
}

// total is the bytes moved so far; a nil counter (no wire) moved none.
func (n *netCounter) total() int64 {
	if n == nil {
		return 0
	}
	return n.read.Load() + n.written.Load()
}

type countedConn struct {
	net.Conn
	n *netCounter
}

func (c *countedConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.read.Add(int64(k))
	return k, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.written.Add(int64(k))
	return k, err
}
