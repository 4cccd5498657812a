package bench

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The gap ledger: paperNotes held against a results file. Its one use is
// the test that pins EXPERIMENTS.md's block to results_full.txt.

// parseTables is the inverse of Table.String over what `xftlbench all`
// prints: each table followed by a blank line.
func parseTables(text string) ([]*Table, error) {
	var out []*Table
	for _, block := range strings.SplitAfter(text, "\n\n") {
		if block == "" {
			continue
		}
		lines := strings.Split(strings.TrimSuffix(block, "\n\n"), "\n")
		title, ok := strings.CutPrefix(lines[0], "== ")
		if !ok || len(lines) < 3 {
			return nil, fmt.Errorf("not a table: %q", lines[0])
		}
		dashes := strings.Split(lines[2], "  ")
		split := func(l string) (row []string) {
			for _, d := range dashes {
				w := min(len(d), len(l))
				row, l = append(row, strings.TrimRight(l[:w], " ")), l[min(w+2, len(l)):]
			}
			return row
		}
		t := &Table{Title: strings.TrimSuffix(title, " =="), Header: split(lines[1])}
		for _, l := range lines[3:] {
			if n, ok := strings.CutPrefix(l, "note: "); ok {
				t.Notes = append(t.Notes, n)
			} else {
				t.RowData = append(t.RowData, split(l))
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// cell reads the number at a row label and a column header.
func (t *Table) cell(row, col string) (string, float64, error) {
	j := slices.Index(t.Header, col)
	for _, r := range t.RowData {
		if r[0] == row && j > 0 && j < len(r) {
			v, err := strconv.ParseFloat(strings.TrimRight(r[j], "x%"), 64)
			return r[j], v, err
		}
	}
	return "", 0, fmt.Errorf("%s: no cell at %q, %q", t.Title, row, col)
}

// point is a claim measured at one place: a cell's text and number, or
// an Ordering's verdict there (1 holds, 0 fails).
type point struct {
	where, cell string
	v           float64
}

// measure reads a claim's points in the tables its note sits under.
func measure(ts []*Table, c Claim) ([]point, error) {
	var pts []point
	for _, t := range ts {
		where := t.Header[0] + " "
		if len(ts) > 1 {
			where = t.Title[strings.LastIndex(t.Title, ", ")+2:] + ", " + where
		}
		var rows []string
		for _, r := range t.RowData {
			if c.Row == "" || r[0] == c.Row {
				rows = append(rows, r[0])
			}
		}
		if c.Kind != Ordering {
			for _, r := range rows {
				cell, v, err := t.cell(r, c.Column)
				if err != nil {
					return nil, err
				}
				pts = append(pts, point{where + r, cell, v})
			}
			continue
		}
		chain, places := strings.Split(c.Column+c.Row, " > "), t.Header[1:]
		if c.Row == "" {
			places = rows
		}
		for _, at := range places {
			p, prev := point{at, "", 1}, math.Inf(1)
			for _, link := range chain {
				row, col := at, link
				if c.Row != "" {
					row, col = link, at
				}
				_, v, err := t.cell(row, col)
				if err != nil {
					return nil, err
				}
				if v >= prev {
					p.v = 0
				}
				prev = v
			}
			pts = append(pts, p)
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("no table or cell for %q, %q", c.Row, c.Column)
	}
	return pts, nil
}

// distance is the factor between a measured value and the paper's value
// or band, 1.00× on it.
func distance(c Claim, m float64) string {
	lo, hi, d := c.Paper, c.Paper, 1.0
	if c.Kind == Band {
		hi = c.Hi
	}
	if m < lo {
		d = lo / m
	} else if m > hi {
		d = m / hi
	}
	if math.IsInf(d, 1) {
		return "∞"
	}
	return fmt.Sprintf("%.2f×", d)
}

// ledger holds every claim against a results file and renders the gap
// table EXPERIMENTS.md pins: each claim's measured value and distance
// (a series' lowest and highest points), or an Ordering's verdict.
func ledger(results string) (string, error) {
	tables, err := parseTables(results)
	if err != nil {
		return "", err
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	var b strings.Builder
	b.WriteString("| Table | Claim | Paper | Measured | Distance |\n|---|---|---|---|---|\n")
	for _, n := range paperNotes {
		var ts []*Table
		for _, t := range tables {
			if strings.HasPrefix(t.Title, n.Table) {
				ts = append(ts, t)
			}
		}
		for _, c := range n.Claims {
			pts, err := measure(ts, c)
			if err != nil {
				return "", fmt.Errorf("%s %w", n.Table, err)
			}
			claim, paper := strings.Trim(c.Row+", "+c.Column, ", "), num(c.Paper)
			if c.Row == "" {
				claim += ", every row"
			} else if c.Column == "" {
				claim += ", every column"
			}
			lo, hi := pts[0], pts[0]
			for _, p := range pts {
				if p.v < lo.v {
					lo = p
				}
				if p.v > hi.v {
					hi = p
				}
			}
			row := fmt.Sprintf("%s | %s | %s", paper, lo.cell, distance(c, lo.v))
			switch {
			case c.Kind == Ordering && lo.v == 0:
				row = "holds | fails at " + lo.where + " | fail"
			case c.Kind == Ordering:
				row = fmt.Sprintf("holds | holds in all %d | pass", len(pts))
			case c.Kind == Band:
				paper += "–" + num(c.Hi)
				fallthrough
			case c.Row == "":
				row = fmt.Sprintf("%s | %s (%s) … %s (%s) | %s … %s", paper, lo.cell, lo.where,
					hi.cell, hi.where, distance(c, lo.v), distance(c, hi.v))
			}
			fmt.Fprintf(&b, "| %s | %s | %s |\n", strings.TrimSuffix(n.Table, ":"), claim, row)
		}
	}
	return b.String(), nil
}

// parseTables is the inverse of Table.String over both results files.
func TestParseTablesInvertsString(t *testing.T) {
	for _, name := range []string{"results_quick.txt", "results_full.txt"} {
		text, err := os.ReadFile("../../" + name)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := parseTables(string(text))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var b strings.Builder
		for _, tbl := range tables {
			b.WriteString(tbl.String() + "\n")
		}
		if b.String() != string(text) {
			t.Errorf("%s does not render back from its %d parsed tables", name, len(tables))
		}
	}
}

// EXPERIMENTS.md's gap ledger is generated: the block between its
// markers must equal the ledger of results_full.txt, so a regeneration
// of that file shows every claim's move in the block's diff. On a
// mismatch the test prints the block to paste.
func TestExperimentsLedgerIsPinned(t *testing.T) {
	results, err := os.ReadFile("../../results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ledger(string(results))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- ledger: generated from results_full.txt -->\n", "<!-- end ledger -->\n"
	_, block, _ := strings.Cut(string(doc), begin)
	block, _, ok := strings.Cut(block, end)
	if !ok || block != want {
		t.Errorf("EXPERIMENTS.md's block between %q and %q is not the ledger of results_full.txt; it should read:\n%s", begin, end, want)
	}
}
