package main

import (
	"math"
	"slices"
)

// metricDef names one metric of the suite. The tables below are the
// suite's schema: BENCHMARK.json repeats them (main_test.go checks the
// two agree) and later issues refer to the names verbatim.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees, per workload. Host-clock
// metrics cost the simulator, SQL engine and serving tier; virtual-clock
// metrics are the modelled flash device.
//
// The bounds are sized from ten-seed runs on the 2-core reference box
// (README.md, "Bounds"): a whole run there drifts by a tenth to a third
// with the neighbours' load, so what is timed on the host is normalised
// to the quiet box (boxspeed.go) and still gets the widest bound the
// contract allows; counts and virtual-clock figures move only with the
// seed, by about 1 %. Host p99 and CPU per op drift more than any bound
// allowed could hold and are recorded ungated as bench.*.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_ops_per_s", "1/s", "higher", 0.25},
	{"host_p50_us", "us", "lower", 0.25},
	{"host_allocs_per_op", "count", "lower", 0.05},
	{"host_alloc_kb_per_op", "KB", "lower", 0.05},
	{"host_peak_rss_mb", "MB", "lower", 0.20},
	{"virt_ops_per_s", "virt_1/s", "higher", 0.05},
	{"flash_writes_per_op", "pages", "lower", 0.05},
}

// perLayer is the traced pass: one block per module, in stack order.
// A value of 0 on a workload that does not drive the layer means "not
// on this workload's path" (workload.layers); the suite document writes
// those as null.
var perLayer = []metricDef{
	// server
	{Name: "server.roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "server.roundtrip_allocs", Unit: "count", Better: "lower"},
	{Name: "server.stage_admission_us", Unit: "us", Better: "lower"},
	{Name: "server.stage_begin_us", Unit: "us", Better: "lower"},
	{Name: "server.stage_exec_us", Unit: "us", Better: "lower"},
	{Name: "server.stage_commit_us", Unit: "us", Better: "lower"},
	{Name: "server.stage_other_us", Unit: "us", Better: "lower"},
	{Name: "server.shed_per_kop", Unit: "count", Better: "lower"},
	{Name: "server.deadline_drops_per_kop", Unit: "count", Better: "lower"},
	// mvcc
	{Name: "mvcc.begin_read_ns", Unit: "ns", Better: "lower"},
	{Name: "mvcc.begin_write_ns", Unit: "ns", Better: "lower"},
	{Name: "mvcc.commit_ns", Unit: "ns", Better: "lower"},
	{Name: "mvcc.writer_waits_per_wtx", Unit: "count", Better: "lower"},
	{Name: "mvcc.busy_timeouts", Unit: "count", Better: "lower"},
	// readpool
	{Name: "readpool.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "readpool.invalidations_per_kop", Unit: "count", Better: "lower"},
	{Name: "readpool.evictions_per_kop", Unit: "count", Better: "lower"},
	// sqlite and its subpackages
	{Name: "sqlparse.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "sqlparse.parse_allocs", Unit: "count", Better: "lower"},
	{Name: "sqlite.begin_ns", Unit: "ns", Better: "lower"},
	{Name: "sqlite.begin_allocs", Unit: "count", Better: "lower"},
	{Name: "sqlite.select_ns", Unit: "ns", Better: "lower"},
	{Name: "sqlite.select_allocs", Unit: "count", Better: "lower"},
	{Name: "sqlite.update_ns", Unit: "ns", Better: "lower"},
	{Name: "sqlite.update_allocs", Unit: "count", Better: "lower"},
	{Name: "sqlite.commit_ns", Unit: "ns", Better: "lower"},
	{Name: "sqlite.commit_allocs", Unit: "count", Better: "lower"},
	{Name: "btree.seek_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.seek_allocs", Unit: "count", Better: "lower"},
	{Name: "btree.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.insert_allocs", Unit: "count", Better: "lower"},
	{Name: "pager.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "pager.get_hit_allocs", Unit: "count", Better: "lower"},
	{Name: "pager.get_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "pager.get_miss_allocs", Unit: "count", Better: "lower"},
	{Name: "pager.commit_ns", Unit: "ns", Better: "lower"},
	{Name: "pager.commit_allocs", Unit: "count", Better: "lower"},
	{Name: "pager.wal_checkpoints_per_kop", Unit: "count", Better: "lower"},
	// simfs
	{Name: "simfs.db_writes_per_op", Unit: "pages", Better: "lower"},
	{Name: "simfs.journal_writes_per_op", Unit: "pages", Better: "lower"},
	{Name: "simfs.fsmeta_writes_per_op", Unit: "pages", Better: "lower"},
	{Name: "simfs.reads_per_op", Unit: "pages", Better: "lower"},
	{Name: "simfs.fsyncs_per_op", Unit: "count", Better: "lower"},
	{Name: "simfs.write_page_ns", Unit: "ns", Better: "lower"},
	{Name: "simfs.write_page_allocs", Unit: "count", Better: "lower"},
	{Name: "simfs.write_page_virt_us", Unit: "virt_us", Better: "lower"},
	{Name: "simfs.read_page_ns", Unit: "ns", Better: "lower"},
	{Name: "simfs.read_page_allocs", Unit: "count", Better: "lower"},
	{Name: "simfs.read_page_virt_us", Unit: "virt_us", Better: "lower"},
	{Name: "simfs.fsync_ns", Unit: "ns", Better: "lower"},
	{Name: "simfs.fsync_allocs", Unit: "count", Better: "lower"},
	{Name: "simfs.fsync_virt_us", Unit: "virt_us", Better: "lower"},
	// storage
	{Name: "storage.cmds_per_op", Unit: "count", Better: "lower"},
	// ncq
	{Name: "ncq.submit_ns", Unit: "ns", Better: "lower"},
	{Name: "ncq.submit_allocs", Unit: "count", Better: "lower"},
	{Name: "ncq.mean_depth", Unit: "count", Better: "higher"},
	{Name: "ncq.write_virt_p50_us", Unit: "virt_us", Better: "lower"},
	{Name: "ncq.write_virt_p99_us", Unit: "virt_us", Better: "lower"},
	{Name: "ncq.read_virt_p50_us", Unit: "virt_us", Better: "lower"},
	{Name: "ncq.barrier_virt_p50_us", Unit: "virt_us", Better: "lower"},
	{Name: "ncq.retries_per_kop", Unit: "count", Better: "lower"},
	{Name: "ncq.timeouts_per_kop", Unit: "count", Better: "lower"},
	// core (X-FTL)
	{Name: "core.write_tx_ns", Unit: "ns", Better: "lower"},
	{Name: "core.write_tx_allocs", Unit: "count", Better: "lower"},
	{Name: "core.write_tx_virt_us", Unit: "virt_us", Better: "lower"},
	{Name: "core.commit_ns", Unit: "ns", Better: "lower"},
	{Name: "core.commit_allocs", Unit: "count", Better: "lower"},
	{Name: "core.commit_virt_us", Unit: "virt_us", Better: "lower"},
	{Name: "core.snap_read_ns", Unit: "ns", Better: "lower"},
	{Name: "core.snap_read_allocs", Unit: "count", Better: "lower"},
	{Name: "core.snap_read_virt_us", Unit: "virt_us", Better: "lower"},
	{Name: "core.tx_writes_per_op", Unit: "pages", Better: "lower"},
	{Name: "core.commits_per_op", Unit: "count", Better: "lower"},
	{Name: "core.images_per_commit", Unit: "pages", Better: "lower"},
	{Name: "core.gc_reflushes_per_kop", Unit: "count", Better: "lower"},
	{Name: "core.snap_reads_per_op", Unit: "pages", Better: "lower"},
	{Name: "core.snap_old_hit_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.peak_pinned_pages", Unit: "pages", Better: "lower"},
	// ftl
	{Name: "ftl.write_ns", Unit: "ns", Better: "lower"},
	{Name: "ftl.write_allocs", Unit: "count", Better: "lower"},
	{Name: "ftl.write_virt_us", Unit: "virt_us", Better: "lower"},
	{Name: "ftl.barrier_ns", Unit: "ns", Better: "lower"},
	{Name: "ftl.barrier_allocs", Unit: "count", Better: "lower"},
	{Name: "ftl.barrier_virt_us", Unit: "virt_us", Better: "lower"},
	{Name: "ftl.gc_runs_per_kop", Unit: "count", Better: "lower"},
	{Name: "ftl.gc_validity", Unit: "ratio", Better: "lower"},
	{Name: "ftl.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "ftl.gc_virt_frac", Unit: "ratio", Better: "lower"},
	{Name: "ftl.meta_virt_frac", Unit: "ratio", Better: "lower"},
	// nand
	{Name: "nand.program_ns", Unit: "ns", Better: "lower"},
	{Name: "nand.program_allocs", Unit: "count", Better: "lower"},
	{Name: "nand.read_ns", Unit: "ns", Better: "lower"},
	{Name: "nand.read_allocs", Unit: "count", Better: "lower"},
	{Name: "nand.erase_ns", Unit: "ns", Better: "lower"},
	{Name: "nand.erase_allocs", Unit: "count", Better: "lower"},
	{Name: "nand.page_writes_per_op", Unit: "pages", Better: "lower"},
	{Name: "nand.page_reads_per_op", Unit: "pages", Better: "lower"},
	{Name: "nand.erases_per_kop", Unit: "count", Better: "lower"},
	{Name: "nand.unit_busy_frac", Unit: "ratio", Better: "higher"},
	{Name: "nand.virt_host_frac", Unit: "ratio", Better: "higher"},
	{Name: "nand.virt_gc_frac", Unit: "ratio", Better: "lower"},
	{Name: "nand.virt_meta_frac", Unit: "ratio", Better: "lower"},
	{Name: "nand.virt_commit_frac", Unit: "ratio", Better: "lower"},
	// trace, bench
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.events_per_op", Unit: "count", Better: "lower"},
	{Name: "bench.go_gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.segment_spread_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.box_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "bench.unattributed_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.host_cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "bench.host_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.host_p999_us", Unit: "us", Better: "lower"},
	{Name: "bench.virt_p50_us", Unit: "virt_us", Better: "lower"},
	{Name: "bench.virt_p99_us", Unit: "virt_us", Better: "lower"},
	{Name: "bench.failed_frac", Unit: "ratio", Better: "lower"},
}

// metricSet is one run's measured values by name. A name that is absent
// after a run is a bug the runner reports; NaN marks "this workload
// does not drive that layer".
type metricSet map[string]float64

var notApplicable = math.NaN()

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-quantile of sorted samples.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
