package main

import (
	"strings"
	"testing"

	"repro"
)

// TestScriptedSession pipes a session into the shell and holds its output
// to a transcript: a statement continued on a second line, an INSERT, a
// SELECT's table, a failing statement's error line, and each statement's
// simulated I/O time, the same on every run because time is virtual.
func TestScriptedSession(t *testing.T) {
	const script = `CREATE TABLE kv (k INTEGER PRIMARY KEY,
  v TEXT);
INSERT INTO kv VALUES (1, 'hello'), (2, 'world');
SELECT v, k FROM kv ORDER BY k;
SELECT nope FROM kv;
`
	const want = `sqlsh: t.db on OpenSSD (X-FTL mode); end statements with ';', Ctrl-D to exit
sql> ...> ok (0 row(s) affected, 16.32ms simulated I/O)
sql> ok (2 row(s) affected, 9.07ms simulated I/O)
sql> v      k
hello  1
world  2
(2 row(s), 0s simulated I/O)
sql> error: sqlite: no such column: nope
sql> `
	var out strings.Builder
	if err := run(strings.NewReader(script), &out, xftl.ModeXFTL, "t.db"); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("transcript:\n%s\nwant:\n%s", got, want)
	}
}
