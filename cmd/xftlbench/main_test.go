package main

import (
	"os"
	"strings"
	"testing"
)

// `xftlbench -quick -quiet all` prints every experiment's tables in
// experiments' order, each followed by a blank line. internal/bench's
// quick tests hold each table, notes included, to a verbatim block of
// results_quick.txt; this test holds the file's blocks to the order
// "all" prints them in, without running the experiments.
func TestGoldenFollowsAllsOrder(t *testing.T) {
	titles := map[string][]string{
		"fig5":   {"Figure 5:"},
		"table1": {"Table 1:"},
		"fig6":   {"Figure 6(a):", "Figure 6(b):"},
		"fig7":   {"Figure 7:"},
		"table2": {"Table 2:"},
		"table3": {"Table 3:"},
		"table4": {"Table 3:", "Table 4:"},
		"fig8":   {"Figure 8:"},
		"fig9":   {"Figure 9:"},
		"table5": {"Table 5:"},
		"ablate": {"Ablations:"},
	}
	var want []string
	for _, e := range experiments() {
		ts, ok := titles[e.name]
		if !ok {
			t.Fatalf("experiment %q has no titles here: name the tables it prints", e.name)
		}
		want = append(want, ts...)
	}
	golden, err := os.ReadFile("../../results_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	blocks := strings.SplitAfter(string(golden), "\n\n")
	if last := blocks[len(blocks)-1]; last != "" {
		t.Fatalf("results_quick.txt does not end in a blank line: %q", last)
	}
	blocks = blocks[:len(blocks)-1]
	if len(blocks) != len(want) {
		t.Fatalf("results_quick.txt has %d tables, all prints %d", len(blocks), len(want))
	}
	for i, b := range blocks {
		if !strings.HasPrefix(b, "== "+want[i]) {
			t.Errorf("table %d of results_quick.txt is %q, want %q", i+1, strings.SplitN(b, "\n", 2)[0], want[i])
		}
	}
}
