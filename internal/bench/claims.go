package bench

import (
	"fmt"
	"strings"

	"repro/internal/workload/android"
)

// Kind says how a claim is judged. An Absolute or Ratio claim's distance
// is max(m/p, p/m), and a paper value of 0 must be matched exactly; a
// Band's is the factor to its nearer end, 1 inside; an Ordering passes
// or fails.
type Kind int

// The claim kinds.
const (
	Absolute Kind = iota
	Ratio
	Band
	Ordering
)

// A Claim places one of the paper's figures in a results table. An empty
// Row makes it a series over every row of every table its note sits
// under. An Ordering's chain "A > B" is its Column, checked in every
// row, or its Row, checked in every column.
type Claim struct {
	Row, Column string
	Kind        Kind
	Paper, Hi   float64 // Hi: a Band's upper end
}

// note is a line under the tables whose title starts with Table, quoting
// its claims: each {0} or {1} in Text prints the next paper value with
// that many decimals, and {%} prints it as the percentage a ratio adds.
// A Band quotes both ends, an Ordering none.
type note struct {
	Table, Text string
	Claims      []Claim
}

var modeRows, walXFTL = []string{"RBJ", "WAL", "X-FTL"}, []string{"WAL", "X-FTL", "X-FTL/WAL"}

// paperNotes is every figure the paper's evaluation states, in the order
// its tables print.
var paperNotes = []note{
	{"Figure 5:", "paper (50% validity): X-FTL {1}x faster than WAL, {1}x faster than RBJ", []Claim{
		{"", "WAL/X-FTL", Ratio, 3.5, 0}, {"", "RBJ/X-FTL", Ratio, 11.7, 0}}},
	{"Table 1:", "paper: RBJ {0}/{0}/{0}, {0} fsyncs; WAL {0}/{0}/{0}, {0}; X-FTL {0}/{0}/{0}, {0}",
		cells(modeRows, []string{"DB", "Journal", "FSmeta", "fsyncs"},
			6230, 7222, 15987, 2999, 3523, 5754, 3646, 1013, 5211, 0, 994, 994)},
	{"Table 1:", "paper FTL-side writes: RBJ {0}, WAL {0}, X-FTL {0}",
		cells(modeRows, []string{"FTL-Write"}, 243639, 92979, 33239)},
	{"Figure 6(a):", "paper ordering: RBJ > WAL > X-FTL, all rising with validity", []Claim{
		{"", "RBJ > WAL > X-FTL", Ordering, 0, 0}, {"70% > 50% > 30%", "", Ordering, 0, 0}}},
	{"Figure 7:", "paper: X-FTL {1}x to {1}x faster than WAL across all four traces", []Claim{{"", "WAL/X-FTL", Band, 2.4, 3.0}}},
	{"Table 2:", "", table2Claims()},
	{"Table 4:", "paper (WAL vs X-FTL): write-intensive {0}/{0} ({1}x), read-intensive {0}/{0} ({1}x),",
		cells([]string{"write-intensive", "read-intensive"}, walXFTL, 251, 582, 2.3, 3942, 9925, 2.5)},
	{"Table 4:", "selection-only {0}/{0} (~{1}x), join-only {0}/{0} (~{1}x)",
		cells([]string{"selection-only", "join-only"}, walXFTL, 281856, 277586, 1.0, 35662, 35888, 1.0)},
	{"Figure 8:", "paper: X-FTL beats ordered by {%}-{%}% and full by {%}-{%}% across all intervals", []Claim{
		{"", "X-FTL/ordered", Band, 1.67, 1.99}, {"", "X-FTL/full", Band, 3.40, 3.54}}},
	{"Figure 9:", "paper: X-FTL on the older OpenSSD lands between the newer S830's ordered and full modes", []Claim{
		{"", "S830 ordered > OpenSSD X-FTL > S830 full", Ordering, 0, 0}}},
	{"Table 5:", "paper: rollback {1} ms, write-ahead log {1} ms, X-FTL {1} ms",
		cells(modeRows, []string{"restart (paper quantity)"}, 20.1, 153.0, 3.5)},
}

// cells states one value per (row, column), row by row. A quotient
// column ("X-FTL/WAL") holds a Ratio, any other an Absolute.
func cells(rows, cols []string, vals ...float64) []Claim {
	var out []Claim
	for i, v := range vals {
		c := Claim{Row: rows[i/len(cols)], Column: cols[i%len(cols)], Paper: v}
		if strings.Contains(c.Column, "/") {
			c.Kind = Ratio
		}
		out = append(out, c)
	}
	return out
}

// table2Claims holds each trace's measured updated pages per transaction
// to the census the trace generator takes from the paper.
func table2Claims() []Claim {
	var out []Claim
	for _, n := range android.Names() {
		c, _ := android.CountsFor(n)
		out = append(out, Claim{"measured avg updated pages/txn", n, Absolute, c.AvgUpdatedPages, 0})
	}
	return out
}

// paperNoteLines renders the notes that sit under the table titled title.
func paperNoteLines(title string) []string {
	var out []string
	for _, n := range paperNotes {
		if n.Text == "" || !strings.HasPrefix(title, n.Table) {
			continue
		}
		var vals []float64
		for _, c := range n.Claims {
			if c.Kind != Ordering {
				vals = append(vals, c.Paper)
			}
			if c.Kind == Band {
				vals = append(vals, c.Hi)
			}
		}
		var b strings.Builder
		text := n.Text
		for i := strings.IndexByte(text, '{'); i >= 0; i = strings.IndexByte(text, '{') {
			v, prec := vals[0], int(text[i+1]-'0')
			if text[i+1] == '%' {
				v, prec = (v-1)*100, 0
			}
			fmt.Fprintf(&b, "%s%.*f", text[:i], prec, v)
			vals, text = vals[1:], text[i+3:]
		}
		out = append(out, b.String()+text)
	}
	return out
}
