package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// suiteVersion changes when a metric's definition does; compare refuses
// to put two versions side by side.
const suiteVersion = 1

// document is the one JSON file a suite run writes: every workload,
// both passes, and enough about the box to read the host numbers.
type document struct {
	SuiteVersion int           `json:"suite_version"`
	Meta         docMeta       `json:"meta"`
	Workloads    []docWorkload `json:"workloads"`
	Canary       []canaryRow   `json:"canary"`
}

type docMeta struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick"`
}

// docValue is a metric in the document; a nil value is a layer the
// workload does not drive.
type docValue struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

type docWorkload struct {
	Name      string `json:"name"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// SegmentSpread is how far the end-to-end pass's own segments
	// disagreed; compare calls a host-clock pair unresolved when it
	// exceeds the metric's bound. (bench.segment_spread_frac is the same
	// figure for the traced pass's much shorter phase.)
	SegmentSpread float64             `json:"segment_spread_frac"`
	EndToEnd      map[string]docValue `json:"end_to_end"`
	PerLayer      map[string]docValue `json:"per_layer"`
}

// canaryRow sets one simulated figure beside the paper's, so no
// simulated speed-up is quoted without the model's distance from the
// reference. Not gated.
type canaryRow struct {
	What     string  `json:"what"`
	Measured float64 `json:"measured"`
	Paper    float64 `json:"paper"`
	Error    float64 `json:"error_frac"`
}

// suiteMain runs every workload in a fresh process of this binary, one
// per pass, so first-touch page faults, heap growth and peak RSS of one
// run never leak into the next.
func suiteMain(cfg runConfig, outPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	doc := &document{SuiteVersion: suiteVersion, Meta: docMeta{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: vcsRevision(), Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick,
	}}
	fmt.Printf("suite v%d: %s, GOMAXPROCS %d of %d CPUs, commit %s, seed %d, %d s quota%s\n",
		suiteVersion, doc.Meta.GoVersion, doc.Meta.GOMAXPROCS, doc.Meta.NumCPU, doc.Meta.Commit,
		cfg.seed, cfg.seconds, map[bool]string{true: ", QUICK (not for publication)"}[cfg.quick])
	ok := true
	for _, wl := range workloads {
		dw := docWorkload{Name: wl.name, Correct: true, EndToEnd: map[string]docValue{}, PerLayer: map[string]docValue{}}
		for _, traced := range []bool{false, true} {
			res, err := runChild(self, wl, cfg, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
				return 1
			}
			dw.Correct = dw.Correct && res.Correct
			dw.Attempted += res.Attempted
			dw.Failed += res.Failed
			for name, mv := range res.Metrics {
				v := mv.Value
				dv := docValue{Value: &v, Unit: mv.Unit}
				if !traced {
					dw.EndToEnd[name] = dv
					continue
				}
				dw.PerLayer[name] = dv
			}
			if res.Extra == nil {
				continue
			}
			for _, name := range res.Extra.NotApplicable {
				dw.PerLayer[name] = docValue{Unit: res.Metrics[name].Unit}
			}
			if !traced {
				dw.SegmentSpread = res.Extra.SegmentSpread
			}
		}
		ok = ok && dw.Correct
		doc.Workloads = append(doc.Workloads, dw)
	}
	doc.Canary = canary(doc)
	printDocument(os.Stdout, doc)
	if outPath != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Printf("\nwrote %s\n", outPath)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: output checks failed")
		return 1
	}
	return 0
}

// runChild runs one pass of one workload in its own process, echoes its
// tables and returns its result line.
func runChild(self string, wl *workload, cfg runConfig, traced bool) (*result, error) {
	args := []string{
		"-workload", wl.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", map[bool]string{false: "0", true: "1"}[traced],
		"-suitechild",
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	if cfg.profileDir != "" && traced {
		args = append(args, "-profile", cfg.profileDir)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimRight(out, "\n"), []byte("\n"))
	last := lines[len(lines)-1]
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(string(l))
	}
	res := &result{}
	if jerr := json.Unmarshal(last, res); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("bad result line: %v", jerr)
	}
	// A child that printed a result but exited non-zero failed its
	// output checks; the result says so.
	return res, nil
}

// vcsRevision asks git for the commit being measured; run.sh builds
// without a VCS stamp because a checkout need not be a repository.
func vcsRevision() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Paper reference points: Table 1 (per 1,000 transactions at 5
// updates/txn, ~50 % GC validity) and Figure 5's headline ratio.
const (
	paperXFTLWrites = 33.239
	paperXFTLFsyncs = 0.994
	paperWALWrites  = 92.979
	paperWALFsyncs  = 1.013
	paperSpeedup    = 3.5
)

func canary(doc *document) []canaryRow {
	get := func(wl, pass, name string) (float64, bool) {
		for _, w := range doc.Workloads {
			if w.Name != wl {
				continue
			}
			m := w.EndToEnd
			if pass == "layer" {
				m = w.PerLayer
			}
			if v, ok := m[name]; ok && v.Value != nil {
				return *v.Value, true
			}
		}
		return 0, false
	}
	var rows []canaryRow
	add := func(what string, measured float64, ok bool, paper float64) {
		if ok {
			rows = append(rows, canaryRow{what, measured, paper, measured/paper - 1})
		}
	}
	v, ok := get("synth_xftl", "e2e", "flash_writes_per_op")
	add("synth_xftl flash writes per txn (Table 1)", v, ok, paperXFTLWrites)
	v, ok = get("synth_xftl", "layer", "simfs.fsyncs_per_op")
	add("synth_xftl fsyncs per txn (Table 1)", v, ok, paperXFTLFsyncs)
	v, ok = get("synth_wal", "e2e", "flash_writes_per_op")
	add("synth_wal flash writes per txn (Table 1)", v, ok, paperWALWrites)
	v, ok = get("synth_wal", "layer", "simfs.fsyncs_per_op")
	add("synth_wal fsyncs per txn (Table 1)", v, ok, paperWALFsyncs)
	x, okx := get("synth_xftl", "e2e", "virt_ops_per_s")
	w, okw := get("synth_wal", "e2e", "virt_ops_per_s")
	add("X-FTL / WAL virtual throughput (Fig. 5)", ratio(x, w), okx && okw && w > 0, paperSpeedup)
	return rows
}

// printDocument prints every metric of every workload by name, with
// its unit.
func printDocument(out io.Writer, doc *document) {
	fmt.Fprintln(out, "\nend-to-end metrics (tracer off; host-clock figures are medians over segments, normalised to the quiet reference box)")
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\t")
	for _, w := range doc.Workloads {
		fmt.Fprintf(tw, "%s\t", w.Name)
	}
	fmt.Fprintln(tw)
	row := func(defs []metricDef, pick func(docWorkload) map[string]docValue) {
		for _, d := range defs {
			fmt.Fprintf(tw, "%s\t%s\t", d.Name, d.Unit)
			for _, w := range doc.Workloads {
				v, ok := pick(w)[d.Name]
				switch {
				case !ok:
					fmt.Fprint(tw, "?\t")
				case v.Value == nil:
					fmt.Fprint(tw, "-\t")
				default:
					fmt.Fprintf(tw, "%s\t", fmtValue(*v.Value))
				}
			}
			fmt.Fprintln(tw)
		}
	}
	row(endToEnd, func(w docWorkload) map[string]docValue { return w.EndToEnd })
	fmt.Fprint(tw, "segment spread\tratio\t")
	for _, w := range doc.Workloads {
		fmt.Fprintf(tw, "%s\t", fmtValue(w.SegmentSpread))
	}
	fmt.Fprint(tw, "\nfailed / attempted\t\t")
	for _, w := range doc.Workloads {
		fmt.Fprintf(tw, "%d / %d\t", w.Failed, w.Attempted)
	}
	fmt.Fprintln(tw)
	tw.Flush()

	fmt.Fprintln(out, "\nper-layer metrics (traced pass; - = the workload does not drive the layer)")
	tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\t")
	for _, w := range doc.Workloads {
		fmt.Fprintf(tw, "%s\t", w.Name)
	}
	fmt.Fprintln(tw)
	row(perLayer, func(w docWorkload) map[string]docValue { return w.PerLayer })
	tw.Flush()

	if len(doc.Canary) > 0 {
		fmt.Fprintln(out, "\npaper-fidelity canary (not gated)")
		tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "what\tmeasured\tpaper\terror")
		for _, c := range doc.Canary {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%+.1f%%\n", c.What, fmtValue(c.Measured), fmtValue(c.Paper), 100*c.Error)
		}
		tw.Flush()
	}
}

// fmtValue prints four significant digits, enough to see a 0.1 % move.
func fmtValue(v float64) string {
	switch a := math.Abs(v); {
	case v == 0:
		return "0"
	case a >= 1000:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case a >= 100:
		return strconv.FormatFloat(v, 'f', 1, 64)
	case a >= 10:
		return strconv.FormatFloat(v, 'f', 2, 64)
	case a >= 1:
		return strconv.FormatFloat(v, 'f', 3, 64)
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}
