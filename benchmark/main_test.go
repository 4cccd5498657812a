package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

func quickRun(t *testing.T, name string, seed int64, traced bool) *result {
	t.Helper()
	wl := workloadByName(name)
	if wl == nil {
		t.Fatalf("no workload %q", name)
	}
	cfg := runConfig{env: env{seed: seed, quick: true}, seconds: defaultSeconds, traced: traced, suiteChild: true}
	res, err := runWorkload(wl, cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s (seed %d, traced %v): %v", name, seed, traced, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("%s (seed %d, traced %v): %d of %d failed", name, seed, traced, res.Failed, res.Attempted)
	}
	return res
}

// checkMetrics asserts a result carries exactly the named metrics, each
// finite and with its unit.
func checkMetrics(t *testing.T, where string, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", where, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		mv, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", where, d.Name)
		case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
			t.Errorf("%s: %s = %v", where, d.Name, mv.Value)
		case mv.Unit != d.Unit:
			t.Errorf("%s: %s unit %q, want %q", where, d.Name, mv.Unit, d.Unit)
		}
	}
}

// TestQuickSuite is the smoke of all five workloads, both passes: every
// named metric is present, finite and carries its unit; the simulated
// statistics of a same-seed rerun repeat; another seed still passes its
// output checks.
func TestQuickSuite(t *testing.T) {
	first := map[string][2]*result{}
	for _, wl := range workloads {
		e2e, layer := quickRun(t, wl.name, 1, false), quickRun(t, wl.name, 1, true)
		first[wl.name] = [2]*result{e2e, layer}
		checkMetrics(t, wl.name+" end-to-end", e2e, endToEnd)
		checkMetrics(t, wl.name+" per-layer", layer, perLayer)
		for _, d := range endToEnd {
			if e2e.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, must never be 0", wl.name, d.Name, e2e.Metrics[d.Name].Value)
			}
		}
		na := map[string]bool{}
		for _, name := range layer.Extra.NotApplicable {
			na[name] = true
		}
		for _, d := range perLayer {
			prefix, _, _ := strings.Cut(d.Name, ".")
			if prefix == "trace" || prefix == "bench" {
				continue
			}
			if na[d.Name] == wl.drives(prefix) {
				t.Errorf("%s: %s not-applicable=%v but drives(%s)=%v", wl.name, d.Name, na[d.Name], prefix, wl.drives(prefix))
			}
		}
		if v := layer.Metrics["nand.page_writes_per_op"].Value; v <= 0 {
			t.Errorf("%s: nand.page_writes_per_op = %v; every workload ends in page programs", wl.name, v)
		}
	}

	// synth_wal has one client, and at -quick size the order in which the
	// pager writes a transaction's dirty pages (a Go map's) does not reach
	// the counts: every simulated statistic repeats bit for bit.
	for pass, res := range first["synth_wal"] {
		again := quickRun(t, "synth_wal", 1, pass == 1)
		for name, mv := range res.Metrics {
			if simulatedStat(name) && again.Metrics[name].Value != mv.Value {
				t.Errorf("synth_wal rerun: %s = %v, first run %v", name, again.Metrics[name].Value, mv.Value)
			}
		}
	}
	// On synth_xftl it does (README.md, "What repeats"): flash-level
	// figures move by a few tenths of a percent between same-seed runs.
	// What the engine asks of the device still repeats exactly.
	for pass, res := range first["synth_xftl"] {
		again := quickRun(t, "synth_xftl", 1, pass == 1)
		for name, mv := range res.Metrics {
			got := again.Metrics[name].Value
			switch {
			case strings.HasPrefix(name, "simfs.") && strings.HasSuffix(name, "_per_op"),
				name == "core.tx_writes_per_op", name == "core.commits_per_op", name == "storage.cmds_per_op":
				if got != mv.Value {
					t.Errorf("synth_xftl rerun: %s = %v, first run %v", name, got, mv.Value)
				}
			case name == "virt_ops_per_s", name == "flash_writes_per_op", name == "nand.page_writes_per_op":
				if math.Abs(got-mv.Value) > 0.03*mv.Value {
					t.Errorf("synth_xftl rerun: %s = %v, first run %v (more than 3%% apart)", name, got, mv.Value)
				}
			}
		}
	}
	// mtenant_tx has two: counts that do not depend on how the tenants
	// interleave repeat exactly, the rest to within the GC's sensitivity
	// to page placement.
	for pass, res := range first["mtenant_tx"] {
		again := quickRun(t, "mtenant_tx", 1, pass == 1)
		for name, mv := range res.Metrics {
			got := again.Metrics[name].Value
			switch name {
			case "core.tx_writes_per_op", "core.commits_per_op", "storage.cmds_per_op", "core.images_per_commit":
				if got != mv.Value {
					t.Errorf("mtenant_tx rerun: %s = %v, first run %v", name, got, mv.Value)
				}
			case "virt_ops_per_s", "flash_writes_per_op", "nand.page_writes_per_op":
				if math.Abs(got-mv.Value) > 0.02*mv.Value {
					t.Errorf("mtenant_tx rerun: %s = %v, first run %v (more than 2%% apart)", name, got, mv.Value)
				}
			}
		}
	}
	quickRun(t, "synth_xftl", 2, false)
	quickRun(t, "mtenant_tx", 2, false)
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in metrics.go
// and run.go saying the same thing.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s / %s", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

func TestCompare(t *testing.T) {
	val := func(v float64) docValue { return docValue{Value: &v, Unit: "x"} }
	doc := func(rate, spread float64) *document {
		w := docWorkload{Name: "synth_xftl", Correct: true, EndToEnd: map[string]docValue{}, PerLayer: map[string]docValue{}}
		for _, d := range endToEnd {
			w.EndToEnd[d.Name] = val(100)
		}
		w.EndToEnd["host_ops_per_s"] = val(rate)
		w.SegmentSpread = spread
		return &document{SuiteVersion: suiteVersion, Workloads: []docWorkload{w}}
	}
	for _, tc := range []struct {
		name        string
		rate        float64
		spread      float64
		exit        int
		wantInTable string
	}{
		{"same", 100, 0.01, 0, " ok"},
		{"better", 150, 0.01, 0, " ok"},
		{"worse", 60, 0.01, 1, " worse"},
		{"noisy", 60, 0.5, 0, " unresolved"},
	} {
		var out bytes.Buffer
		if got := compareDocuments(&out, doc(100, 0.01), doc(tc.rate, tc.spread)); got != tc.exit {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.exit, out.String())
		}
		if !strings.Contains(out.String(), tc.wantInTable) {
			t.Errorf("%s: no %q verdict in\n%s", tc.name, tc.wantInTable, out.String())
		}
	}
}
