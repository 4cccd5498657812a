package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/ncq"
	"repro/internal/trace"
)

// traceRollup is the tracer's events over the traced phase reduced to
// what the per-layer metrics need: NAND busy time by origin, queue
// command latencies by class, queue depth. Firmware spans (GC episodes,
// X-FTL commits) are not used: under the channel scheduler the clock
// stands still while a command executes, so they have no length; the
// NAND operations they cause carry their origin instead.
type traceRollup struct {
	events   int
	nandBy   [5]time.Duration // by trace.Origin
	nandBusy time.Duration    // unit-time: an erase occupies every unit
	fsync    time.Duration    // simfs fsync spans
	cmdLat   [3][]int64       // write, read, barrier class, ns
	depthSum int64
	cmds     int64
}

const (
	clsWrite = iota
	clsRead
	clsBarrier
)

func rollup(events []trace.Event, units int) *traceRollup {
	r := &traceRollup{events: len(events)}
	for i := range events {
		ev := &events[i]
		switch {
		case ev.Layer == trace.LNAND:
			if int(ev.Origin) < len(r.nandBy) {
				r.nandBy[ev.Origin] += ev.Dur
			}
			if ev.Kind == trace.KNandErase {
				r.nandBusy += ev.Dur * time.Duration(units)
			} else {
				r.nandBusy += ev.Dur
			}
		case ev.Kind == trace.KFSync:
			r.fsync += ev.Dur
		case ev.Kind == trace.KCmd:
			op := ncq.Op(ev.Op)
			cls := clsWrite
			switch {
			case op.IsBarrier():
				cls = clsBarrier
			case op == ncq.OpRead || op == ncq.OpReadTx || op == ncq.OpSnapRead:
				cls = clsRead
			}
			r.cmdLat[cls] = append(r.cmdLat[cls], int64(ev.Dur))
			r.depthSum += int64(ev.Depth)
			r.cmds++
		}
	}
	for c := range r.cmdLat {
		slices.Sort(r.cmdLat[c])
	}
	return r
}

func (r *traceRollup) nandTotal() time.Duration {
	var t time.Duration
	for _, d := range r.nandBy {
		t += d
	}
	return t
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	wl     *workload
	plain  *phaseResult // spans on, tracer off: host times
	traced *phaseResult // same ops, tracer on: counts and virtual time
	roll   *traceRollup
	lad    *ladder
	units  int
}

// layerMetrics derives every per-layer metric. Counts are deltas of the
// layers' public counters over the traced phase, per op; hops are the
// ladder's (or, for the layer the workload calls itself, its spans').
func layerMetrics(li layerInputs) metricSet {
	p, a, b := li.traced, li.traced.before, li.traced.after
	ops := float64(p.ops)
	kops := ops / 1000
	d := func(x, y int64) float64 { return float64(y - x) }
	ms := metricSet{}

	// Hops: name → rung; absent rungs are layers the workload skips.
	hops := map[string]hop{}
	for name, r := range li.lad.rungs {
		hops[name] = r.hop
	}
	if li.wl.sqlSpans {
		sp := &li.plain.spans
		hops["sqlite.begin"] = sp.hop(spBegin)
		hops["sqlite.select"] = sp.hop(spSelect)
		hops["sqlite.update"] = sp.hop(spUpdate)
		hops["sqlite.commit"] = sp.hop(spCommit)
	}
	setHop := func(name string, axes ...string) {
		h, ok := hops[name]
		byAxis := map[string]float64{"ns": h.ns, "allocs": h.allocs, "virt_us": h.virtUs}
		for _, ax := range axes {
			if ms[name+"_"+ax] = byAxis[ax]; !ok {
				ms[name+"_"+ax] = notApplicable
			}
		}
	}
	for _, name := range []string{"sqlparse.parse", "sqlite.begin", "sqlite.select", "sqlite.update", "sqlite.commit",
		"btree.seek", "btree.insert", "pager.get_hit", "pager.get_miss", "pager.commit",
		"ncq.submit", "nand.program", "nand.read", "nand.erase", "server.roundtrip"} {
		setHop(name, "ns", "allocs")
	}
	for _, name := range []string{"simfs.write_page", "simfs.read_page", "simfs.fsync",
		"core.write_tx", "core.commit", "core.snap_read", "ftl.write", "ftl.barrier"} {
		setHop(name, "ns", "allocs", "virt_us")
	}
	for _, name := range []string{"mvcc.begin_read", "mvcc.begin_write", "mvcc.commit"} {
		setHop(name, "ns")
	}

	// Counts. A layer the workload does not drive reports not-applicable
	// instead of a zero that reads like a measurement.
	count := func(layer, name string, v float64) {
		if !li.wl.drives(layer) {
			v = notApplicable
		}
		ms[name] = v
	}
	stage := func(name string) float64 {
		return ratio((b.stage.seconds[name]-a.stage.seconds[name])*1e6, b.stage.count[name]-a.stage.count[name])
	}
	for _, s := range []string{"admission", "begin", "exec", "commit", "other"} {
		count("server", "server.stage_"+s+"_us", stage(s))
	}
	count("server", "server.shed_per_kop", d(a.wire.Shed, b.wire.Shed)/kops)
	count("server", "server.deadline_drops_per_kop", d(a.wire.DeadlineDrops, b.wire.DeadlineDrops)/kops)

	wtx := d(a.mvcc.writeTx, b.mvcc.writeTx)
	count("mvcc", "mvcc.writer_waits_per_wtx", ratio(d(a.mvcc.writerWaits, b.mvcc.writerWaits), wtx))
	count("mvcc", "mvcc.busy_timeouts", d(a.mvcc.busyTimeouts, b.mvcc.busyTimeouts))

	hits, misses := d(a.pool.Hits, b.pool.Hits), d(a.pool.Misses, b.pool.Misses)
	count("readpool", "readpool.hit_ratio", ratio(hits, hits+misses))
	count("readpool", "readpool.invalidations_per_kop", d(a.pool.Invalidations, b.pool.Invalidations)/kops)
	count("readpool", "readpool.evictions_per_kop", d(a.pool.Evictions, b.pool.Evictions)/kops)

	count("pager", "pager.wal_checkpoints_per_kop", d(a.walCheckpoints, b.walCheckpoints)/kops)

	count("simfs", "simfs.db_writes_per_op", d(a.host.DBWrites, b.host.DBWrites)/ops)
	count("simfs", "simfs.journal_writes_per_op", d(a.host.JournalWrites, b.host.JournalWrites)/ops)
	count("simfs", "simfs.fsmeta_writes_per_op", d(a.host.FSMetaWrites, b.host.FSMetaWrites)/ops)
	count("simfs", "simfs.reads_per_op", d(a.host.Reads, b.host.Reads)/ops)
	count("simfs", "simfs.fsyncs_per_op", d(a.host.Fsyncs, b.host.Fsyncs)/ops)

	count("storage", "storage.cmds_per_op", d(a.cmds, b.cmds)/ops)

	count("ncq", "ncq.mean_depth", ratio(float64(li.roll.depthSum), float64(li.roll.cmds)))
	count("ncq", "ncq.write_virt_p50_us", percentile(li.roll.cmdLat[clsWrite], 0.50)/1e3)
	count("ncq", "ncq.write_virt_p99_us", percentile(li.roll.cmdLat[clsWrite], 0.99)/1e3)
	count("ncq", "ncq.read_virt_p50_us", percentile(li.roll.cmdLat[clsRead], 0.50)/1e3)
	count("ncq", "ncq.barrier_virt_p50_us", percentile(li.roll.cmdLat[clsBarrier], 0.50)/1e3)
	count("ncq", "ncq.retries_per_kop", d(a.ncqRetries, b.ncqRetries)/kops)
	count("ncq", "ncq.timeouts_per_kop", d(a.ncqTimeouts, b.ncqTimeouts)/kops)

	commits := d(a.core.Commits, b.core.Commits)
	snapReads := d(a.core.SnapReads, b.core.SnapReads)
	count("core", "core.tx_writes_per_op", d(a.core.TxWrites, b.core.TxWrites)/ops)
	count("core", "core.commits_per_op", commits/ops)
	count("core", "core.images_per_commit", ratio(d(a.core.TableImages, b.core.TableImages), commits))
	count("core", "core.gc_reflushes_per_kop", d(a.core.GCReflushes, b.core.GCReflushes)/kops)
	count("core", "core.snap_reads_per_op", snapReads/ops)
	count("core", "core.snap_old_hit_ratio", ratio(d(a.core.SnapOldHits, b.core.SnapOldHits), snapReads))
	count("core", "core.peak_pinned_pages", float64(b.peakPinned))

	victims, validity := gcWindow(a, b)
	progs := d(a.flash.PageWrites, b.flash.PageWrites)
	hostWrites := d(a.ncqWrites, b.ncqWrites) // page-write commands the device accepted
	virt := p.virt.Seconds()
	count("ftl", "ftl.gc_runs_per_kop", float64(victims)/kops)
	count("ftl", "ftl.gc_validity", validity)
	count("ftl", "ftl.write_amp", ratio(progs, hostWrites))
	unitTime := virt * float64(li.units)
	count("ftl", "ftl.gc_virt_frac", ratio(li.roll.nandBy[trace.OGC].Seconds(), unitTime))
	count("ftl", "ftl.meta_virt_frac", ratio(li.roll.nandBy[trace.OMeta].Seconds(), unitTime))

	nandTotal := li.roll.nandTotal().Seconds()
	count("nand", "nand.page_writes_per_op", progs/ops)
	count("nand", "nand.page_reads_per_op", d(a.flash.PageReads, b.flash.PageReads)/ops)
	count("nand", "nand.erases_per_kop", d(a.flash.BlockErases, b.flash.BlockErases)/kops)
	count("nand", "nand.unit_busy_frac", ratio(li.roll.nandBusy.Seconds(), unitTime))
	count("nand", "nand.virt_host_frac", ratio(li.roll.nandBy[trace.OHost].Seconds(), nandTotal))
	count("nand", "nand.virt_gc_frac", ratio(li.roll.nandBy[trace.OGC].Seconds(), nandTotal))
	count("nand", "nand.virt_meta_frac", ratio(li.roll.nandBy[trace.OMeta].Seconds(), nandTotal))
	count("nand", "nand.virt_commit_frac", ratio(li.roll.nandBy[trace.OCommit].Seconds(), nandTotal))

	ms["trace.overhead_frac"] = ratio(p.meanHostNs(), li.plain.meanHostNs()) - 1
	ms["trace.events_per_op"] = float64(li.roll.events) / ops
	ms["bench.go_gc_cpu_frac"] = ratio(li.plain.gcCPU, li.plain.cpu.Seconds())
	ms["bench.segment_spread_frac"] = li.plain.segmentSpread()
	ms["bench.box_slowdown"] = li.plain.meanSlowdown()
	ms["bench.host_cpu_us_per_op"] = float64(li.plain.cpu.Microseconds()) / float64(li.plain.ops)
	ms["bench.host_p99_us"] = percentile(li.plain.hostNs, 0.99) / 1e3
	ms["bench.host_p999_us"] = percentile(li.plain.hostNs, 0.999) / 1e3
	ms["bench.virt_p50_us"], ms["bench.virt_p99_us"] = notApplicable, notApplicable
	if len(li.plain.virtNs) > 0 {
		ms["bench.virt_p50_us"] = percentile(li.plain.virtNs, 0.50) / 1e3
		ms["bench.virt_p99_us"] = percentile(li.plain.virtNs, 0.99) / 1e3
	}
	return ms
}

// ladderRow is one layer's share of an op's host time.
type ladderRow struct {
	layer string
	parts []ladderPart
	us    float64
}

type ladderPart struct {
	hop    string
	calls  float64 // per op
	selfNs float64
}

// hostLadder attributes the process's CPU time per op (tracer off) to
// layers: calls per op (counters) × ladder self time (hop minus the
// hops it makes into the layers below), plus the Go collector's own
// CPU. What the rows do not explain, in either direction, is the
// unattributed fraction. CPU time, not latency, is the whole: with two
// closed-loop clients a latency also holds the wait for the other one.
func hostLadder(li layerInputs) (rows []ladderRow, perOpUs, unattributed float64) {
	p := li.traced
	ops := float64(p.ops)
	w := workBetween(p.before, p.after, ops)
	r := li.lad.rungs
	self := func(name string) float64 { return li.lad.selfNs(name) }

	add := func(layer string, parts ...ladderPart) {
		row := ladderRow{layer: layer}
		for _, pt := range parts {
			if _, ok := r[pt.hop]; !ok && pt.selfNs == 0 {
				continue
			}
			row.parts = append(row.parts, pt)
			row.us += pt.calls * pt.selfNs / 1e3
		}
		if len(row.parts) > 0 {
			rows = append(rows, row)
		}
	}
	part := func(hop string, calls float64) ladderPart { return ladderPart{hop, calls, self(hop)} }

	a, b := p.before, p.after
	d := func(x, y int64) float64 { return float64(y-x) / ops }
	sel, upd, begins, commits, parses := 0.0, 0.0, 0.0, 0.0, 0.0
	switch li.wl.name {
	case "serve_mixed":
		upd = d(a.mvcc.writeTx, b.mvcc.writeTx)
		sel = 1 - upd
		parses = 1
		// An autocommit UPDATE runs inside its own write session.
		begins, commits = upd, upd
	case "writers_mvcc":
		upd, begins, commits, parses = wrUpdatesPerTxn, 1, 1, wrUpdatesPerTxn
	}
	add("server", part("server.roundtrip", 1))
	add("mvcc",
		part("mvcc.begin_read", d(a.mvcc.readTx, b.mvcc.readTx)),
		part("mvcc.begin_write", d(a.mvcc.writeTx, b.mvcc.writeTx)),
		part("mvcc.commit", d(a.mvcc.writeTx, b.mvcc.writeTx)))
	if li.wl.sqlSpans {
		// The workload's own spans are inclusive of everything below;
		// the engine's self time is what the lower rows leave of them.
		below := li.lad.fsCostNs(w)
		spanNs := float64(li.plain.spans.totalNs()) / float64(li.plain.ops)
		add("sqlite", ladderPart{"spans − rows below", 1, max(0, spanNs-below)})
	} else {
		add("sqlite",
			part("sqlparse.parse", parses),
			part("sqlite.begin", begins), part("sqlite.select", sel),
			part("sqlite.update", upd), part("sqlite.commit", commits))
	}
	add("simfs", part("simfs.write_page", w.fsWrite), part("simfs.read_page", w.fsRead), part("simfs.fsync", w.fsync))
	add("ncq", part("ncq.submit", w.cmds))
	add("core", part("core.write_tx", w.txWrite), part("core.commit", w.xCommit), part("core.snap_read", w.snapRead))
	ftlWrites := w.ftlWrite
	if li.lad.xmode {
		ftlWrites += w.txWrite // write(t,p) lands in the base FTL's write path too
	}
	add("ftl", part("ftl.write", ftlWrites), part("ftl.barrier", w.ftlBarrier))
	add("nand", part("nand.program", w.prog), part("nand.read", w.read), part("nand.erase", w.erase))

	add("go runtime", ladderPart{"gc cpu", 1, li.plain.gcCPU * 1e9 / float64(li.plain.ops)})

	perOpUs = float64(li.plain.cpu.Microseconds()) / float64(li.plain.ops)
	var sum float64
	for _, row := range rows {
		sum += row.us
	}
	diff := perOpUs - sum
	if diff < 0 {
		diff = -diff
	}
	return rows, perOpUs, ratio(diff, perOpUs)
}

// nandCostNs is the NAND leaf cost of some work.
func (l *ladder) nandCostNs(w work) float64 {
	return w.prog*l.rungs["nand.program"].ns + w.read*l.rungs["nand.read"].ns + w.erase*l.rungs["nand.erase"].ns
}

// devCostNs is the modelled host cost of everything at and below the
// command queue for some work.
func (l *ladder) devCostNs(w work) float64 {
	c := l.nandCostNs(w) + w.cmds*l.selfNs("ncq.submit") +
		w.ftlWrite*l.selfNs("ftl.write") + w.ftlBarrier*l.selfNs("ftl.barrier")
	if l.xmode {
		c += w.txWrite*(l.selfNs("core.write_tx")+l.selfNs("ftl.write")) +
			w.xCommit*l.selfNs("core.commit") + w.snapRead*l.selfNs("core.snap_read")
	}
	return c
}

// fsCostNs adds the file system's own time.
func (l *ladder) fsCostNs(w work) float64 {
	return l.devCostNs(w) + w.fsWrite*l.selfNs("simfs.write_page") +
		w.fsRead*l.selfNs("simfs.read_page") + w.fsync*l.selfNs("simfs.fsync")
}

// selfNs is a rung's hop minus the modelled cost of the lower-layer
// work the hop caused on the ladder stack, floored at zero.
func (l *ladder) selfNs(name string) float64 {
	r, ok := l.rungs[name]
	if !ok {
		return 0
	}
	var below float64
	switch layer, _, _ := strings.Cut(name, "."); layer {
	case "nand", "ncq", "server", "sqlparse", "pager", "btree":
	case "ftl":
		below = l.nandCostNs(r.work)
	case "core":
		below = l.nandCostNs(r.work)
		if name == "core.write_tx" {
			below += l.selfNs("ftl.write")
		}
	case "simfs":
		below = l.devCostNs(r.work)
	default: // sqlite, mvcc
		below = l.fsCostNs(r.work)
	}
	return max(0, r.ns-below)
}

// printLadders writes the two per-workload tables of the traced pass.
func printLadders(out io.Writer, li layerInputs) float64 {
	rows, perOp, unattributed := hostLadder(li)
	fmt.Fprintf(out, "\n%s: host CPU µs per op by layer (calls/op × ladder self time); whole op = %.1f µs\n", li.wl.name, perOp)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\thop\tcalls/op\tself ns\tµs/op\tshare")
	for _, row := range rows {
		for i, pt := range row.parts {
			layer, total, share := "", "", ""
			if i == 0 {
				layer, total, share = row.layer, fmt.Sprintf("%.2f", row.us), fmt.Sprintf("%.1f%%", 100*ratio(row.us, perOp))
			}
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.0f\t%s\t%s\n", layer, pt.hop, pt.calls, pt.selfNs, total, share)
		}
	}
	fmt.Fprintf(tw, "unattributed\t\t\t\t%.2f\t%.1f%%\n", unattributed*perOp, 100*unattributed)
	tw.Flush()

	p, roll := li.traced, li.roll
	ops := float64(p.ops)
	us := func(d time.Duration) float64 { return float64(d.Microseconds()) / ops }
	fmt.Fprintf(out, "\n%s: virtual µs per op by origin (tracer roll-up); elapsed = %.1f µs/op over %d units\n",
		li.wl.name, us(p.virt), li.units)
	tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "what\tvirtual µs/op\tshare of NAND time")
	for o, name := range []string{"nand: host", "nand: gc", "nand: meta", "nand: commit", "nand: recovery"} {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f%%\n", name, us(roll.nandBy[o]), 100*ratio(roll.nandBy[o].Seconds(), roll.nandTotal().Seconds()))
	}
	fmt.Fprintf(tw, "simfs: fsync spans\t%.1f\t\n", us(roll.fsync))
	tw.Flush()
	return unattributed
}
