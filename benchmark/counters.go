package main

import (
	xftl "repro"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mvcc"
	"repro/internal/readpool"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/trace"
)

// layerCounters is one snapshot of every public counter the layers
// keep. Per-layer work counts are deltas of two snapshots; nothing here
// reaches into a layer's private state.
type layerCounters struct {
	host metrics.HostSnapshot // simfs: page writes by class, reads, fsyncs
	// fsPages is how many device pages the file system has handed out to
	// files: simfs snapshots every inode's page list at each commit
	// point, so its fsync cost scales with this.
	fsPages int64
	flash   metrics.FlashSnapshot // nand/ftl: programs, reads, GC runs, erases
	cmds    int64                 // storage: host commands executed

	core       core.Stats // zero on a baseline (non-X-FTL) device
	peakPinned int

	gcVictims  int64   // ftl: cumulative victims and their mean validity
	gcValidity float64 //

	ncqRetries, ncqTimeouts int64
	// ncq: commands completed by class (write-class includes write(t,p)
	// and trim; barrier-class includes commit, abort and prepare).
	ncqWrites, ncqReads, ncqBarriers int64

	mvcc struct {
		writeTx, readTx, writerWaits, busyTimeouts int64
	}
	pool           readpool.Stats
	walCheckpoints int64

	wire  server.WireStats
	stage stageTotals
}

// fsReservedPages is simfs's fixed metadata and journal region.
const fsReservedPages = 64 + 1024

// deviceCounters fills the counters every workload has: the device's.
func deviceCounters(dev *storage.Device) layerCounters {
	var lc layerCounters
	lc.flash = dev.FlashStats().Snapshot()
	lc.cmds = dev.Commands()
	if x := dev.XFTL(); x != nil {
		lc.core = x.Stats()
		lc.peakPinned = x.PeakPinnedPages()
	}
	lc.gcVictims, lc.gcValidity = dev.FTL().GCStats()
	q := dev.Queue()
	lc.ncqRetries, lc.ncqTimeouts = q.Retries(), q.Timeouts()
	lc.ncqWrites = q.WriteLat.Snapshot().Count
	lc.ncqReads = q.ReadLat.Snapshot().Count
	lc.ncqBarriers = q.BarrierLat.Snapshot().Count
	return lc
}

// stackCounters adds the file system's host-side counters.
func stackCounters(st *xftl.Stack) layerCounters {
	lc := deviceCounters(st.Device)
	lc.host = st.Host.Snapshot()
	lc.fsPages = max(0, st.Device.LogicalPages()-fsReservedPages-st.FS.FreePages())
	return lc
}

func (lc *layerCounters) addManager(m *mvcc.Manager) {
	lc.mvcc.writeTx = m.Stats.WriteTx.Load()
	lc.mvcc.readTx = m.Stats.ReadTx.Load()
	lc.mvcc.writerWaits = m.Stats.WriterWaits.Load()
	lc.mvcc.busyTimeouts = m.Stats.BusyTimeouts.Load()
	lc.pool, _ = m.PoolStats()
}

// attachStack installs a tracer on every layer of a stack under one
// generation label, or removes it.
func attachStack(st *xftl.Stack, t *trace.Tracer) {
	if t == nil {
		st.SetTracer(nil)
		return
	}
	st.AttachTracer(t, "traced")
}

// gcWindow is the GC activity between two snapshots: victims collected
// and the mean share of their pages that were still valid.
func gcWindow(a, b layerCounters) (victims int64, validity float64) {
	victims = b.gcVictims - a.gcVictims
	if victims <= 0 {
		return 0, 0
	}
	return victims, (b.gcValidity*float64(b.gcVictims) - a.gcValidity*float64(a.gcVictims)) / float64(victims)
}
