package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// compareMain implements `benchmark compare OLD.json NEW.json`: one row
// per workload × end-to-end metric with both values, the delta, the
// bound and a verdict. It is the tool for the A/A acceptance run and
// for every later PR; any "worse" makes the exit status non-zero.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare OLD.json NEW.json")
		return 2
	}
	var docs [2]*document
	for i, path := range args {
		doc, err := loadDocument(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark compare: %v\n", err)
			return 2
		}
		docs[i] = doc
	}
	return compareDocuments(os.Stdout, docs[0], docs[1])
}

func loadDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &document{}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.SuiteVersion != suiteVersion {
		return nil, fmt.Errorf("%s: suite version %d, this tool compares version %d", path, doc.SuiteVersion, suiteVersion)
	}
	return doc, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative means better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// hostClock reports whether a metric is timed on the host, and so
// inherits the run's segment-to-segment noise. Counts (allocations,
// flash writes) and virtual-clock figures do not.
func hostClock(name string) bool {
	switch name {
	case "host_ops_per_s", "host_p50_us":
		return true
	}
	return false
}

func compareDocuments(out io.Writer, oldDoc, newDoc *document) int {
	if oldDoc.Meta.Quick || newDoc.Meta.Quick {
		fmt.Fprintln(out, "warning: a -quick document is a smoke run; its numbers carry no claim")
	}
	newByName := map[string]docWorkload{}
	for _, w := range newDoc.Workloads {
		newByName[w.Name] = w
	}
	worse := 0
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tdelta\tbound\tverdict")
	for _, ow := range oldDoc.Workloads {
		nw, ok := newByName[ow.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t(missing in new)\t\t\t\t\tworse\n", ow.Name)
			worse++
			continue
		}
		spread := max(ow.SegmentSpread, nw.SegmentSpread)
		for _, d := range endToEnd {
			a, b := valueOf(ow.EndToEnd, d.Name), valueOf(nw.EndToEnd, d.Name)
			wfrac := worsening(d, a, b)
			verdict := "ok"
			switch {
			case hostClock(d.Name) && spread > d.Bound:
				// The run's own segments disagree by more than the bound:
				// the pair cannot resolve a change this small either way.
				verdict = "unresolved"
			case wfrac > d.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.2f%%\t%.0f%%\t%s\n",
				ow.Name, d.Name, fmtValue(a), fmtValue(b), 100*ratio(b-a, a), 100*d.Bound, verdict)
		}
		if nw.Failed > ow.Failed || (ow.Correct && !nw.Correct) {
			fmt.Fprintf(tw, "%s\tfailed ops\t%d\t%d\t\t0\tworse\n", ow.Name, ow.Failed, nw.Failed)
			worse++
		}
	}
	tw.Flush()
	interactionRules(out, oldDoc, newByName)
	if worse > 0 {
		fmt.Fprintf(out, "\n%d pair(s) worse than the bound allows\n", worse)
		return 1
	}
	fmt.Fprintln(out, "\nno pair is worse than its bound allows")
	return 0
}

func valueOf(m map[string]docValue, name string) float64 {
	if v, ok := m[name]; ok && v.Value != nil {
		return *v.Value
	}
	return 0
}

// simulatedStat reports whether a metric is a statistic of the modelled
// device or a work count: something a simulator-only speed-up must
// leave identical.
func simulatedStat(name string) bool {
	return strings.Contains(name, "virt_") || strings.HasSuffix(name, "_per_kop") ||
		(strings.HasSuffix(name, "_per_op") && !strings.Contains(name, "host_"))
}

// interactionRules checks the two rules README.md states. Rule 1: a
// simulator-only change leaves every simulated statistic of the
// single-client workloads where it was; the ones that moved are listed
// with how far (flash-level ones move by tenths of a percent between any
// two runs at the seed commit, see README.md "What repeats"). Rule
// 2: on the two-client workloads a layer can gain more than its self
// time only by shortening a lock hold, which shows in these two.
func interactionRules(out io.Writer, oldDoc *document, newByName map[string]docWorkload) {
	fmt.Fprintln(out, "\nrule 1 — simulated statistics on single-client workloads (a simulator-only change leaves all identical):")
	for _, ow := range oldDoc.Workloads {
		nw, ok := newByName[ow.Name]
		if !ok || (ow.Name != "synth_xftl" && ow.Name != "synth_wal") {
			continue
		}
		var moved []string
		for _, set := range []struct {
			defs     []metricDef
			old, new map[string]docValue
		}{{endToEnd, ow.EndToEnd, nw.EndToEnd}, {perLayer, ow.PerLayer, nw.PerLayer}} {
			for _, d := range set.defs {
				if a, b := valueOf(set.old, d.Name), valueOf(set.new, d.Name); simulatedStat(d.Name) && a != b {
					moved = append(moved, fmt.Sprintf("%s (%+.2f%%)", d.Name, 100*ratio(b-a, a)))
				}
			}
		}
		if len(moved) == 0 {
			fmt.Fprintf(out, "  %s: identical\n", ow.Name)
		} else {
			fmt.Fprintf(out, "  %s: moved: %s\n", ow.Name, strings.Join(moved, ", "))
		}
	}
	fmt.Fprintln(out, "rule 2 — lock holds on two-client workloads (a gain beyond a layer's self time shows here):")
	for _, ow := range oldDoc.Workloads {
		nw, ok := newByName[ow.Name]
		if !ok {
			continue
		}
		for _, name := range []string{"mvcc.writer_waits_per_wtx", "ncq.submit_ns"} {
			if v, ok := ow.PerLayer[name]; ok && v.Value != nil && (ow.Name == "writers_mvcc" || ow.Name == "mtenant_tx" || ow.Name == "serve_mixed") {
				fmt.Fprintf(out, "  %s %s: %s -> %s\n", ow.Name, name, fmtValue(*v.Value), fmtValue(valueOf(nw.PerLayer, name)))
			}
		}
	}
}
