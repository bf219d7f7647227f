package main

import "testing"

// FuzzTokenize throws arbitrary client input at the command-line
// tokenizer: the first thing the server runs on every non-SQL network
// line (EXECUTE parameters among them), so it must never panic, and a
// nil error must come with at least one token (the dispatcher indexes
// fields[0] unconditionally).
func FuzzTokenize(f *testing.F) {
	f.Add("EXECUTE ins 1 'a b' NULL 2.5")
	f.Add("EXECUTE\tins\t10\t'x'")
	f.Add("EXECUTE upd 'multi word key' 'tab\tinside' NULL")
	f.Add("EXECUTE pt ''")
	f.Add(" \t ")
	f.Add("EXECUTE ins 'unterminated")
	f.Add("a''b 'c' ''\tNULL")

	f.Fuzz(func(t *testing.T, line string) {
		fields, err := tokenize(line)
		if err != nil {
			return
		}
		if len(fields) == 0 {
			t.Fatalf("tokenize(%q) returned no tokens without an error", line)
		}
	})
}
