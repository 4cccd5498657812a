package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	xftl "repro"
	"repro/internal/trace"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the op quotas below
// fill about this long on the reference box at the seed commit.
const defaultSeconds = 8

// The end-to-end pass sets the workload up at least minSetups times,
// and on until setupBudget is spent or maxSetups is reached, so a set-up
// of tens of milliseconds is sampled often enough for its median to
// hold still. setup_s is the median; the last instance is the one
// measured.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = time.Second
)

// workload is one entry of the fixed list. Work is an op count, never a
// time box, so counts repeat: the measured phase runs opsPerSecond ×
// -seconds ops however long that takes.
type workload struct {
	name string
	why  string
	// opsPerSecond is the quota: roughly what the reference box sustains
	// at the seed commit. It is part of the benchmark's definition, not
	// a measurement — a faster program finishes the same ops sooner.
	opsPerSecond int
	warmOps      int
	setup        func(env) (instance, error)
	// layers are the modules this workload drives; per-layer metrics of
	// any other module are reported as not applicable.
	layers []string
	// sqlSpans: the workload calls sqlite itself, so the sqlite hops are
	// its own spans and the ladder does not measure them stand-alone.
	sqlSpans bool
}

var workloads = []*workload{
	{
		name:         "synth_xftl",
		why:          "paper's synthetic point (5 updates/txn, ~50% GC validity) on X-FTL: fidelity canary; virtual time in core commit, ftl GC, nand; host time in sqlite, pager, simfs",
		opsPerSecond: 1450, warmOps: 3000,
		setup:    func(e env) (instance, error) { return setupSynth(xftl.ModeXFTL, e) },
		sqlSpans: true,
		layers:   []string{"sqlite", "sqlparse", "btree", "pager", "simfs", "storage", "ncq", "core", "ftl", "nand"},
	},
	{
		name:         "synth_wal",
		why:          "same data, ops and seed in WAL mode over the baseline FTL: bypasses core, so an X-FTL-only change must not move it; the pair's ratio is the paper's 3.5x",
		opsPerSecond: 640, warmOps: 3000,
		setup:    func(e env) (instance, error) { return setupSynth(xftl.ModeWAL, e) },
		sqlSpans: true,
		layers:   []string{"sqlite", "sqlparse", "btree", "pager", "simfs", "storage", "ncq", "ftl", "nand"},
	},
	{
		name:         "serve_mixed",
		why:          "wire to NAND and back over TCP: Zipf point reads on one connection beside 5% autocommit updates on another, table 6x the connection cache; only path through server, mvcc, readpool, snapshot reads",
		opsPerSecond: 25000, warmOps: 20000,
		setup:  setupServe,
		layers: []string{"server", "mvcc", "readpool", "sqlite", "sqlparse", "btree", "pager", "simfs", "storage", "ncq", "core", "ftl", "nand"},
	},
	{
		name:         "mtenant_tx",
		why:          "device layers only: 2 tenants submit transactional page writes straight into the NCQ queue, no SQL and no file system, so sqlite/simfs/server changes must leave it flat",
		opsPerSecond: 45000, warmOps: 50000,
		setup:  setupMTenant,
		layers: []string{"storage", "ncq", "core", "ftl", "nand"},
	},
	{
		name:         "writers_mvcc",
		why:          "2 embedded writers through the mvcc FIFO ticket lock and the synchronous X-L2P image flush: two writers deliver one writer's virtual rate, the ceiling group commit must lift",
		opsPerSecond: 4600, warmOps: 4000,
		setup:  setupWriters,
		layers: []string{"mvcc", "sqlite", "sqlparse", "btree", "pager", "simfs", "storage", "ncq", "core", "ftl", "nand"},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) drives(layer string) bool {
	for _, l := range w.layers {
		if l == layer {
			return true
		}
	}
	return false
}

type runConfig struct {
	env
	seconds    int
	traced     bool
	profileDir string
	suiteChild bool
}

// measuredOps is the fixed op count of the measured phase and the
// number of segments it is cut into.
func (w *workload) measuredOps(cfg runConfig) (warmOps, ops, nseg int) {
	warmOps, ops, nseg = w.warmOps, w.opsPerSecond*cfg.seconds, segments
	if cfg.quick {
		warmOps, ops, nseg = warmOps/50, ops/50, shortSegments
	}
	return warmOps, ops, nseg
}

// metricValue is one reported number; the unit rides along so a reader
// of the bare JSON line needs no schema.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a single-workload run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Extra is what the suite runner asks its children for on top of
	// the contract's four keys; absent otherwise.
	Extra *resultExtra `json:"extra,omitempty"`
}

type resultExtra struct {
	// SegmentSpread is the end-to-end pass's own segment spread.
	SegmentSpread float64 `json:"segment_spread_frac"`
	// NotApplicable names the per-layer metrics whose 0 means "this
	// workload does not drive the layer".
	NotApplicable []string `json:"not_applicable,omitempty"`
}

// runWorkload is one process's whole job: set up, warm up, measure,
// check outputs. Human-readable tables go to out; the caller prints the
// result line.
func runWorkload(wl *workload, cfg runConfig, out io.Writer) (*result, error) {
	warmOps, ops, nseg := wl.measuredOps(cfg)
	cal := &calibrator{}

	repeats := maxSetups
	if cfg.traced || cfg.quick {
		repeats = 1
	}
	var (
		in     instance
		setups []float64
	)
	for i := 0; i < repeats && (i < minSetups || time.Since(processStart) < setupBudget); i++ {
		if in != nil {
			// Only the last instance is measured; let the earlier ones'
			// memory go before the next is built so peak RSS is one
			// set-up's, not several.
			if err := in.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
			in = nil
			debug.FreeOSMemory()
		}
		slowdown := cal.watch()
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if in, err = wl.setup(cfg.env); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		raw := time.Since(t0).Seconds()
		setups = append(setups, raw/slowdown())
	}
	closed := false
	defer func() {
		if !closed {
			in.close()
		}
	}()

	attempted, failed := warmOps, warm(in, warmOps)

	var (
		ms  metricSet
		res *phaseResult
		tp  *tracedPhases
		err error
	)
	if !cfg.traced {
		if res, err = runPhase(in, cal, ops, nseg, false); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "%s: set-ups %.3f s; box slowdown %.3f, %.0f ops/s as timed, %.0f normalised (median of %d segments)\n",
			wl.name, setups, res.meanSlowdown(), median(res.segRates), res.hostOpsPerS(), nseg)
		ms = endToEndMetrics(res, median(setups))
		attempted, failed = attempted+res.ops, failed+res.failed
		reportFailures(wl, res)
	} else {
		if tp, err = tracedPass(wl, in, cal, cfg, ops/tracedShare); err != nil {
			return nil, err
		}
		attempted += tp.plain.ops + tp.traced.ops
		failed += tp.plain.failed + tp.traced.failed
		reportFailures(wl, tp.plain)
		reportFailures(wl, tp.traced)
	}

	checks, mismatches, err := in.verify()
	if err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	attempted += checks
	failed += mismatches

	if cfg.traced {
		// The ladder builds its own small stacks; the workload's goes
		// first so the collector does not trace it during the rungs. Its
		// memory stays mapped: the rungs then allocate from warm spans,
		// as the workload does in steady state, not from fresh pages.
		closed = true
		if err := in.close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		in = nil
		runtime.GC()
		lad, err := runLadder(wl, cfg.env, tp.traced.after.fsPages)
		if err != nil {
			return nil, err
		}
		li := layerInputs{wl: wl, plain: tp.plain, traced: tp.traced, roll: tp.roll, lad: lad, units: tp.units}
		ms = layerMetrics(li)
		ms["bench.unattributed_frac"] = printLadders(out, li)
		ms["bench.failed_frac"] = ratio(float64(failed), float64(attempted))
	}

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	var extra resultExtra
	if res != nil {
		extra.SegmentSpread = res.segmentSpread()
	}
	r := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := ms[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if v != v { // not applicable to this workload
			v = 0
			extra.NotApplicable = append(extra.NotApplicable, d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if cfg.suiteChild {
		r.Extra = &extra
	}
	return r, nil
}

// reportFailures tells the operator why ops failed; the result line
// only carries the count.
func reportFailures(wl *workload, p *phaseResult) {
	if p.failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d ops failed, first: %v\n", wl.name, p.failed, p.ops, p.firstErr)
	}
}

// endToEndMetrics reduces an untraced phase to the end-to-end set. The
// three host-clock figures are normalised to the quiet reference box
// (boxspeed.go); the rest are counts and virtual time.
func endToEndMetrics(p *phaseResult, setupS float64) metricSet {
	ops := float64(p.ops)
	return metricSet{
		"setup_s":              setupS,
		"host_ops_per_s":       p.hostOpsPerS(),
		"host_p50_us":          percentile(p.normNs, 0.50) / 1e3,
		"host_allocs_per_op":   float64(p.mallocs) / ops,
		"host_alloc_kb_per_op": p.allocKB / ops,
		"host_peak_rss_mb":     peakRSSMB(),
		"virt_ops_per_s":       ratio(ops, p.virt.Seconds()),
		"flash_writes_per_op":  float64(p.after.flash.PageWrites-p.before.flash.PageWrites) / ops,
	}
}

// tracedPhases is what the traced pass keeps of the workload's own run.
type tracedPhases struct {
	plain  *phaseResult
	traced *phaseResult
	roll   *traceRollup
	units  int
}

// tracedPass measures ops operations with the benchmark's own spans on
// and no tracer, attaches the tracer and measures the same again. Host
// times and span hops come from the first phase, counts and the
// virtual-time roll-up from the second; the difference between the two
// is the tracing overhead. Its host times are as timed, not normalised:
// they are set beside the ladder's, which are too.
func tracedPass(wl *workload, in instance, cal *calibrator, cfg runConfig, ops int) (*tracedPhases, error) {
	plain, err := runPhase(in, cal, ops, shortSegments, true)
	if err != nil {
		return nil, err
	}
	stopProfile, err := startProfile(cfg.profileDir, wl.name)
	if err != nil {
		return nil, err
	}
	tr := trace.New()
	in.attach(tr)
	traced, err := runPhase(in, cal, ops, shortSegments, true)
	in.attach(nil)
	if perr := stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	units := in.device().Profile().Nand.Units()
	return &tracedPhases{plain: plain, traced: traced, roll: rollup(tr.Events(), units), units: units}, nil
}

// startProfile begins the workload's CPU profile; the returned stop
// also writes its heap profile. With no directory both are no-ops.
func startProfile(dir, name string) (stop func() error, err error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, name+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		heap, err := os.Create(filepath.Join(dir, name+".heap.pprof"))
		if err != nil {
			return err
		}
		if err := pprof.WriteHeapProfile(heap); err != nil {
			heap.Close()
			return err
		}
		return heap.Close()
	}, nil
}
