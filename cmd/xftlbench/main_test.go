package main

import (
	"os"
	"strings"
	"testing"
)

// `xftlbench [-quick] -quiet all` prints every experiment's tables in
// experiments' order, each followed by a blank line. internal/bench's
// quick tests hold each table, notes included, to a verbatim block of
// results_quick.txt, and its gap ledger reads results_full.txt; this
// test holds both files' blocks to the order "all" prints them in,
// without running the experiments.
func TestGoldenFollowsAllsOrder(t *testing.T) {
	titles := map[string][]string{
		"fig5":   {"Figure 5:"},
		"table1": {"Table 1:"},
		"fig6":   {"Figure 6(a):", "Figure 6(b):"},
		"fig7":   {"Figure 7:"},
		"table2": {"Table 2:"},
		"table3": {"Table 3:"},
		"table4": {"Table 4:"},
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
	// The full run has three Figure 5 panels where the quick one has one.
	full := append([]string{"Figure 5:", "Figure 5:"}, want...)
	for name, want := range map[string][]string{"results_quick.txt": want, "results_full.txt": full} {
		golden, err := os.ReadFile("../../" + name)
		if err != nil {
			t.Fatal(err)
		}
		blocks := strings.SplitAfter(string(golden), "\n\n")
		if last := blocks[len(blocks)-1]; last != "" {
			t.Fatalf("%s does not end in a blank line: %q", name, last)
		}
		blocks = blocks[:len(blocks)-1]
		if len(blocks) != len(want) {
			t.Fatalf("%s has %d tables, all prints %d", name, len(blocks), len(want))
		}
		for i, b := range blocks {
			lines := strings.Split(b, "\n")
			if !strings.HasPrefix(b, "== "+want[i]) {
				t.Errorf("table %d of %s is %q, want %q", i+1, name, lines[0], want[i])
			} else if len(lines) < 6 || strings.Trim(lines[2], "- ") != "" {
				t.Errorf("table %d of %s is not a title, a header, dashes and rows", i+1, name)
			}
		}
	}
}
