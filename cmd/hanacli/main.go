// Command hanacli is an interactive client for hanaserver's line
// protocol: it forwards stdin lines and prints responses until the
// terminating OK/ERR/END marker of each command.
//
// A line whose first word is a protocol verb (BEGIN, COMMIT, PREPARE,
// EXECUTE, EXPLAIN, SESSIONS, MERGE, STATS, QUIT, ...) is sent as
// typed; any other line is a SQL statement and is sent as "SQL <line>",
// so both of these work at the prompt:
//
//	hana> SELECT region, COUNT(*) FROM orders GROUP BY region
//	hana> EXPLAIN ANALYZE SELECT region, COUNT(*) FROM orders GROUP BY region
//
// The connection is a reconnecting session: if the server goes away
// mid-session, hanacli reports the loss, reconnects on the next
// command (replaying PREPAREd statements), and keeps the prompt alive
// instead of exiting.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/client"
)

// verbs lists the protocol commands; a line starting with any other
// word is a SQL statement.
var verbs = []string{"BEGIN", "COMMIT", "ABORT", "SAVEPOINT", "PREPARE", "EXECUTE", "DEALLOCATE",
	"EXPLAIN", "SQL", "SESSIONS", "KILL", "SET", "METRICS", "TRACE", "SLOWLOG", "MERGE", "STATS", "QUIT"}

// wireLine maps one input line to the protocol line to send: protocol
// commands pass through, statements get the "SQL " prefix.
func wireLine(line string) string {
	first, _ := cutWord(line)
	for _, kw := range verbs {
		if strings.EqualFold(first, kw) {
			return line
		}
	}
	return "SQL " + line
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7654", "server address")
	retries := flag.Int("retries", 8, "reconnect attempts per command (-1 = unlimited)")
	flag.Parse()

	c, err := client.Dial(client.Config{
		Addr:       *addr,
		MaxRetries: *retries,
		OnReconnect: func(n int, cause error) {
			fmt.Fprintf(os.Stderr, "hanacli: reconnected to %s (reconnect #%d, after: %v)\n", *addr, n, cause)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hanacli: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()
	fmt.Printf("connected to %s — type SQL statements or protocol commands (QUIT to exit)\n", *addr)

	in := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("hana> ")
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		wire := wireLine(line)
		if strings.EqualFold(wire, "QUIT") {
			fmt.Println("OK bye")
			return
		}
		if name, text, ok := cutPrepare(wire); ok {
			// Route PREPARE through the client so the statement replays
			// automatically after a reconnect and EXECUTE keeps working.
			if err := c.Prepare(name, text); err != nil {
				fmt.Printf("ERR %v\n", err)
			} else {
				fmt.Println("OK prepared (replayed on reconnect)")
			}
			continue
		}
		lines, err := c.Do(wire)
		if err != nil {
			if errors.Is(err, client.ErrTransport) {
				// The connection died under this command: say so, keep
				// the session. The next command dials fresh.
				fmt.Fprintf(os.Stderr, "hanacli: connection lost (%v)\n", err)
				fmt.Fprintf(os.Stderr, "hanacli: will reconnect on the next command; the last command may or may not have executed — check before retrying writes\n")
				continue
			}
			fmt.Fprintf(os.Stderr, "hanacli: %v\n", err)
			return
		}
		for _, l := range lines {
			fmt.Println(l)
		}
	}
}

// cutPrepare splits "PREPARE <name> <stmt>" into its parts.
func cutPrepare(wire string) (name, text string, ok bool) {
	first, rest := cutWord(wire)
	if !strings.EqualFold(first, "PREPARE") {
		return "", "", false
	}
	name, text = cutWord(rest)
	return name, text, name != "" && text != ""
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
