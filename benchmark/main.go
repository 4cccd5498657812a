// Command benchmark is the repository's one fixed performance suite:
// five workloads, two clocks (virtual: the modelled flash device; host:
// what the simulator, SQL engine and serving tier cost to run), every
// layer named. See README.md in this directory.
//
//	go run ./benchmark                      every workload, both passes, one JSON document
//	go run ./benchmark -workload NAME ...   one run, one JSON result line (the BENCHMARK.json contract)
//	go run ./benchmark compare OLD NEW      regression table; non-zero exit on any "worse"
//	go run ./benchmark spec                 BENCHMARK.json as the tables in this package define it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

var processStart = time.Now()

// env is what a workload's set-up may depend on: the seed that drives
// every generator, and the smoke-size switch.
type env struct {
	seed  int64
	quick bool
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:])
	}
	if len(args) > 0 && args[0] == "spec" {
		return specMain()
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload and print one JSON result line (default: the whole suite)")
		seed     = fs.Int64("seed", 1, "seed for every generator")
		seconds  = fs.Int("seconds", defaultSeconds, "measurement budget; op counts are this many seconds' quota")
		traced   = fs.Int("trace", 0, "0: end-to-end pass, tracer off; 1: traced pass with per-layer metrics")
		quick    = fs.Bool("quick", false, "divide op counts by 50 and shrink set-up (smoke only)")
		profile  = fs.String("profile", "", "directory for one CPU and one heap profile per workload (traced pass)")
		out      = fs.String("out", "", "suite mode: write the JSON document here")
		child    = fs.Bool("suitechild", false, "internal: the suite runner's children add an \"extra\" key to the result line")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := runConfig{
		env:     env{seed: *seed, quick: *quick},
		seconds: *seconds, traced: *traced != 0, profileDir: *profile, suiteChild: *child,
	}
	if *workload == "" {
		return suiteMain(cfg, *out)
	}
	w := workloadByName(*workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	res, err := runWorkload(w, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// specMain prints BENCHMARK.json from the workload and metric tables,
// so the file at the repository root is generated, not typed.
func specMain() int {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}
