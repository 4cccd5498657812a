// Package storage models the host-visible storage device: the SATA
// command interface of the OpenSSD board, extended as in §4.2 of the
// paper with transaction-aware reads and writes plus commit and abort
// commands (encoded, as on the prototype, by extending the trim
// command's parameter set).
//
// A Device wraps either the baseline FTL or X-FTL and charges the
// command-level costs the NAND layer cannot see: per-command controller
// firmware time, bus transfer time for page payloads, and the flat cost
// of a write barrier (which on OpenSSD persists the mapping table,
// §6.3.4). Two Profiles reproduce the paper's hardware: the OpenSSD
// Barefoot board and the Samsung S830 used for Figure 9.
//
// Commands flow through an NCQ-style queue (internal/ncq), the device's
// one command path: Queue() exposes asynchronous submission at the
// configured depth, and SubmitWait waits for a command's own completion.
// The queue also makes the Device safe for concurrent use by multiple
// submitters.
package storage

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/ncq"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// ErrNotTransactional is returned when a transactional command is sent
// to a device running the baseline (non-X) FTL.
var ErrNotTransactional = errors.New("storage: device does not support transactional commands")

// ErrWornOut re-exports the firmware's typed worn-out error: the
// bad-block replacement reserve is exhausted and the device has gone
// permanently read-only. Query Health() for the full state.
var ErrWornOut = ftl.ErrWornOut

// HealthState classifies the device's media condition.
type HealthState uint8

const (
	// Healthy: no blocks retired.
	Healthy HealthState = iota
	// Degraded: blocks have been retired but spares remain; fully
	// operational.
	Degraded
	// WornOut: the spare reserve is exhausted; writes fail with
	// ErrWornOut and only reads are served.
	WornOut
)

func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case WornOut:
		return "worn-out"
	default:
		return fmt.Sprintf("HealthState(%d)", uint8(s))
	}
}

// Health is the device's queryable wear state (a SMART-style report).
type Health struct {
	State         HealthState
	RetiredBlocks int // blocks retired to the bad-block table
	SpareBlocks   int // size of the replacement reserve
}

func (h Health) String() string {
	return fmt.Sprintf("%v (retired %d of %d spare)", h.State, h.RetiredBlocks, h.SpareBlocks)
}

// Profile describes one storage device model.
type Profile struct {
	Name string
	// Nand is the flash geometry and raw cell timing.
	Nand nand.Config
	// CmdOverhead is controller firmware time charged per host command.
	CmdOverhead time.Duration
	// TransferPerPage is bus time to move one page between host and
	// device.
	TransferPerPage time.Duration
	// BarrierOverhead is the flat extra cost of a write barrier beyond
	// the mapping-table flush it triggers (cache drain, FUA handling).
	BarrierOverhead time.Duration
	// Channels names the device's channel count. Nothing in the
	// simulation reads it: the scheduler's parallelism is Nand.Channels
	// × Nand.Ways units.
	Channels int
}

// OpenSSD returns the profile of the paper's prototype platform: the
// Indilinx Barefoot controller (87.5 MHz ARM) with Samsung K9LCG08U1M
// MLC NAND (8 KB pages, 128 pages/block) behind SATA 2.0.
func OpenSSD() Profile {
	return Profile{
		Name:            "OpenSSD",
		Nand:            nand.DefaultConfig(),
		CmdOverhead:     120 * time.Microsecond,
		TransferPerPage: 30 * time.Microsecond,
		BarrierOverhead: 1 * time.Millisecond,
		Channels:        4,
	}
}

// S830 returns the profile of the Samsung S830 (128 GB, MLC) SSD used
// as the one-generation-newer comparison device in Figure 9: faster
// controller, SATA 3.0, quicker NAND path and more usable parallelism.
func S830() Profile {
	n := nand.DefaultConfig()
	n.ReadLatency = 90 * time.Microsecond
	n.ProgLatency = 600 * time.Microsecond
	n.EraseLatency = 2 * time.Millisecond
	n.Channels = 8
	n.Ways = 2
	return Profile{
		Name:            "S830",
		Nand:            n,
		CmdOverhead:     25 * time.Microsecond,
		TransferPerPage: 15 * time.Microsecond,
		BarrierOverhead: 300 * time.Microsecond,
		Channels:        8,
	}
}

// Options configures device construction beyond the hardware profile.
type Options struct {
	// Transactional selects the X-FTL firmware; otherwise the baseline
	// page-mapping FTL runs.
	Transactional bool
	// FTL overrides the derived FTL configuration (zero LogicalPages:
	// derive capacity and spare reserve with ftl.DefaultConfig).
	FTL ftl.Config
	// XFTL overrides the X-FTL configuration when Transactional (zero
	// TableEntries: core.DefaultConfig).
	XFTL core.Config
	// Fault installs a NAND fault model (nil: ideal flash). See
	// nand.DefaultFaultModel for realistic MLC rates.
	Fault *nand.FaultModel
	// QueueDepth is the NCQ command-queue depth; 0 selects
	// ncq.DefaultDepth (32). Queue() submitters share the configured
	// slots; a SubmitWait caller sees the same result at any depth.
	QueueDepth int
	// CmdDeadline is the per-attempt virtual-time deadline for data-path
	// commands. Zero disables timeout detection entirely (one attempt,
	// no deadline — the legacy device).
	CmdDeadline time.Duration
	// CmdRetries bounds execution attempts per command. Zero means
	// ncq.DefaultMaxAttempts when CmdDeadline is set, else 1.
	CmdRetries int
}

// Device is a simulated flash storage device exposing the (extended)
// SATA command set. It is safe for concurrent use: commands serialize
// on the internal queue lock while their simulated latencies overlap
// across the flash channels.
type Device struct {
	prof  Profile
	clock *simclock.Clock
	flash *metrics.FlashCounters
	base  *ftl.FTL
	x     *core.XFTL // nil when running the baseline firmware

	sched *ncq.Scheduler
	q     *ncq.Queue

	tracer *trace.Tracer

	cmds atomic.Int64 // host commands processed
}

// New builds a device from a profile. The clock may be shared across
// devices and with the host stack; nil allocates a fresh one.
func New(prof Profile, clock *simclock.Clock, opts Options) (*Device, error) {
	if clock == nil {
		clock = simclock.New()
	}
	flash := &metrics.FlashCounters{}
	chip, err := nand.New(prof.Nand, clock, flash)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	if opts.Fault != nil {
		chip.SetFaultModel(opts.Fault)
	}
	fcfg := opts.FTL
	if fcfg.LogicalPages == 0 {
		// Derive the capacity, honoring an explicit spare-reserve
		// request if it exceeds the derived default.
		def := ftl.DefaultConfig(prof.Nand)
		fcfg.LogicalPages = def.LogicalPages
		fcfg.SpareBlocks = max(fcfg.SpareBlocks, def.SpareBlocks)
	}
	base, err := ftl.New(chip, fcfg, flash)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	d := &Device{prof: prof, clock: clock, flash: flash, base: base}
	if opts.Transactional {
		x, err := core.New(base, opts.XFTL, flash)
		if err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
		d.x = x
	}
	d.sched = ncq.NewScheduler(clock, prof.Nand.Units())
	chip.SetCharger(d.sched)
	d.q = ncq.New(clock, d.sched, opts.QueueDepth, d.execute)
	// The degraded-mode plane is always wired (it is inert without a
	// deadline policy or an injected fault model): every per-unit command
	// outcome feeds the FTL's channel-health tracker, and commands aimed
	// at a quarantined unit are fenced to depth 1.
	d.q.SetHealthSink(healthSink{base})
	d.q.SetUnitHint(d.unitHint)
	d.q.SetRetryPolicy(ncq.RetryPolicy{
		Deadline:    opts.CmdDeadline,
		MaxAttempts: opts.CmdRetries,
	})
	return d, nil
}

// healthSink adapts the FTL's channel-health tracker to the queue's
// HealthSink interface. Calls arrive under the queue lock, and a fault
// in a command window of its own: the context the tracker's quarantine
// drain (GC-style relocations) needs.
type healthSink struct{ f *ftl.FTL }

func (h healthSink) CommandOK(unit int, _ ncq.Op) { h.f.NoteCommandOK(unit) }
func (h healthSink) CommandFault(unit int, _ ncq.Op, timedOut bool) {
	h.f.NoteCommandFault(unit, timedOut)
}
func (h healthSink) Quarantined(unit int) bool { return h.f.UnitQuarantined(unit) }

// unitHint predicts which channel/way unit a request will touch, so the
// queue can fence commands aimed at a quarantined unit before they
// execute. Only read-class commands are predictable (their target page
// is already mapped); writes go wherever the steered frontier points.
func (d *Device) unitHint(r *ncq.Request) int {
	switch r.Op {
	case ncq.OpRead, ncq.OpReadTx, ncq.OpSnapRead:
		if ppn := d.base.Mapping(ftl.LPN(r.LPN)); ppn != nand.InvalidPPN {
			return d.base.Chip().Unit(ppn)
		}
	}
	return -1
}

// HangUnit stalls one channel/way unit for the given virtual time, as
// if its die stopped answering: commands landing on it overrun their
// deadline until the stall drains. A deterministic chaos hook — the
// explicit form of the fault model's HangProb mechanism.
func (d *Device) HangUnit(unit int, stall time.Duration) {
	d.q.Exclusive(func() { d.sched.Hang(unit, stall) })
}

// QuarantineUnit fences one channel/way unit directly, bypassing the
// error thresholds (chaos harnesses and degraded-mode benches). The
// firmware keeps at least one unit in service.
func (d *Device) QuarantineUnit(unit int) error {
	var err error
	d.q.Exclusive(func() { err = d.base.ForceQuarantine(unit) })
	return err
}

// QuarantinePressure reports how many channel/way units are currently
// quarantined and how many the device has in total. Unlike most device
// introspection it is safe to call from any goroutine while commands
// are in flight (the count is an atomic mirror), so a serving tier's
// circuit breaker can sample it on every admission decision.
func (d *Device) QuarantinePressure() (quarantined, units int) {
	return int(d.base.QuarantinedUnits()), d.prof.Nand.Units()
}

// Profile returns the hardware profile the device was built from.
func (d *Device) Profile() Profile { return d.prof }

// Clock returns the simulated clock the device advances.
func (d *Device) Clock() *simclock.Clock { return d.clock }

// FlashStats returns the device-internal counters (Table 1 FTL-side).
func (d *Device) FlashStats() *metrics.FlashCounters { return d.flash }

// Transactional reports whether the device runs the X-FTL firmware.
func (d *Device) Transactional() bool { return d.x != nil }

// XFTL returns the transactional layer, or nil on a baseline device.
func (d *Device) XFTL() *core.XFTL { return d.x }

// FTL returns the baseline mapping layer (always present).
func (d *Device) FTL() *ftl.FTL { return d.base }

// PageSize reports the device page size in bytes.
func (d *Device) PageSize() int { return d.base.PageSize() }

// LogicalPages reports the exported capacity in pages.
func (d *Device) LogicalPages() int64 { return d.base.LogicalPages() }

// Commands reports how many host commands the device has processed.
func (d *Device) Commands() int64 { return d.cmds.Load() }

// SetTracer installs (or, with nil, removes) the event tracer on every
// device layer: the command queue (KCmd events), the firmware (GC and
// commit/abort/recovery spans) and the NAND chip (per-operation
// events). Install before submitting traced traffic.
func (d *Device) SetTracer(t *trace.Tracer) {
	d.tracer = t
	d.q.SetTracer(t)
	d.base.SetTracer(t)
	d.base.Chip().SetTracer(t)
	if d.x != nil {
		d.x.SetTracer(t)
	}
}

// Register publishes the device's counters as metric families with a
// shard label. One collector samples the firmware under the queue lock
// once per scrape — its state is not otherwise safe to read while
// commands run — and every firmware series reads that sample, so a
// scrape is race-free against a live device and consistent within
// itself. The queue's own counters take that lock themselves.
func (d *Device) Register(reg *metrics.Registry, shard string) {
	var s struct {
		flash                              metrics.FlashSnapshot
		x                                  core.Stats
		gcCopied, free, retired, wear      int64
		quarantined, quarTrips, degradedMS int64
		active, pinned, peakPinned, snaps  int64
	}
	reg.OnScrape(func() {
		d.q.Exclusive(func() {
			s.flash = d.flash.Snapshot()
			s.gcCopied = d.base.GCCopiedPages()
			s.free, s.retired = int64(d.base.FreeBlockCount()), int64(d.base.BadBlockCount())
			s.wear = d.base.Chip().WearSpread()
			s.quarantined, s.quarTrips = d.base.QuarantinedUnits(), d.base.QuarantineTrips()
			s.degradedMS = d.base.DegradedTime().Milliseconds()
			if d.x != nil {
				s.x = d.x.Stats()
				s.active, s.pinned = int64(d.x.ActiveEntries()), int64(d.x.PinnedPages())
				s.peakPinned, s.snaps = int64(d.x.PeakPinnedPages()), int64(d.x.OpenSnapshots())
			}
		})
	})
	counter := func(name, help string, v *int64) {
		reg.Counter(name, help, func() int64 { return *v }, "shard", shard)
	}
	gauge := func(name, help string, v *int64) {
		reg.Gauge(name, help, func() int64 { return *v }, "shard", shard)
	}
	counter("xftl_flash_page_writes_total", "Flash page programs, GC copies and mapping flushes included.", &s.flash.PageWrites)
	counter("xftl_flash_page_reads_total", "Flash page reads, GC copy-out reads included.", &s.flash.PageReads)
	counter("xftl_flash_block_erases_total", "Flash block erases.", &s.flash.BlockErases)
	counter("xftl_gc_runs_total", "Garbage-collection victim blocks collected.", &s.flash.GCRuns)
	counter("xftl_gc_copied_pages_total", "Still-valid pages GC copied out of victim blocks.", &s.gcCopied)
	gauge("xftl_ftl_free_blocks", "Erased blocks in the FTL's free pool.", &s.free)
	gauge("xftl_retired_blocks", "Blocks retired to the bad-block table.", &s.retired)
	gauge("xftl_wear_spread", "Highest minus lowest block erase count.", &s.wear)
	gauge("xftl_quarantined_units", "Channel/way units currently quarantined.", &s.quarantined)
	reg.Gauge("xftl_units", "Channel/way units in the flash array.",
		func() int64 { return int64(d.prof.Nand.Units()) }, "shard", shard)
	counter("xftl_quarantine_trips_total", "Quarantine episodes opened.", &s.quarTrips)
	counter("xftl_degraded_virtual_ms_total", "Virtual milliseconds spent with a unit quarantined.", &s.degradedMS)
	reg.Counter("xftl_cmd_retries_total", "Device command attempts reissued after a timeout or transient fault.", d.q.Retries, "shard", shard)
	reg.Counter("xftl_cmd_timeouts_total", "Device command attempts that overran their deadline.", d.q.Timeouts, "shard", shard)
	reg.Gauge("xftl_ncq_in_flight", "Commands outstanding in the NCQ queue.", func() int64 { return int64(d.q.InFlight()) }, "shard", shard)
	for class, h := range map[string]*metrics.LatencyHist{"read": &d.q.ReadLat, "write": &d.q.WriteLat, "barrier": &d.q.BarrierLat} {
		reg.Histogram("xftl_ncq_command_seconds", "Device command latency, submit to completion, in virtual seconds.",
			h, "shard", shard, "class", class)
	}
	if d.x == nil {
		return
	}
	counter("xftl_tx_writes_total", "X-FTL write(t,p) commands.", &s.x.TxWrites)
	counter("xftl_tx_commits_total", "X-FTL commit(t) commands.", &s.x.Commits)
	counter("xftl_tx_aborts_total", "X-FTL abort(t) commands.", &s.x.Aborts)
	counter("xftl_tx_prepares_total", "X-FTL prepare(t) commands (2PC phase one).", &s.x.Prepares)
	counter("xftl_table_images_total", "X-L2P table images programmed to flash.", &s.x.TableImages)
	counter("xftl_snapshot_reads_total", "Reads served through a snapshot handle.", &s.x.SnapReads)
	counter("xftl_snapshot_evictions_total", "Superseded versions reclaimed while other snapshots stayed open.", &s.x.SnapEvictions)
	gauge("xftl_xl2p_active_entries", "X-L2P entries of transactions not yet retired.", &s.active)
	gauge("xftl_pinned_pages", "Superseded pages pinned against GC for open snapshots.", &s.pinned)
	gauge("xftl_peak_pinned_pages", "High-water mark of pinned pages.", &s.peakPinned)
	gauge("xftl_open_snapshots", "Snapshot handles currently open.", &s.snaps)
}

// Queue returns the device's NCQ command queue for asynchronous
// submission at the configured depth. Multiple goroutines may submit
// concurrently; use Queue().Drain() to surface all completions in
// virtual time before reading the clock.
func (d *Device) Queue() *ncq.Queue { return d.q }

// execute runs one attempt of a queued command against the firmware,
// with the chip attributing its NAND work to the command's session and
// request. The queue serializes calls under its lock with a scheduler
// command open, so the firmware state mutates in submission order while
// the latency charges land on the contended channel/way resources.
func (d *Device) execute(r *ncq.Request) error {
	chip := d.base.Chip()
	chip.SetCommand(r.Sess, r.Req)
	err := d.run(r)
	chip.SetCommand(0, 0)
	return err
}

// run dispatches one command to the firmware.
func (d *Device) run(r *ncq.Request) error {
	switch r.Op {
	case ncq.OpRead:
		d.chargeCmd(1)
		if d.x != nil {
			return d.lost(d.x.Read(ftl.LPN(r.LPN), r.Buf))
		}
		return d.lost(d.base.Read(ftl.LPN(r.LPN), r.Buf))
	case ncq.OpWrite:
		d.chargeCmd(1)
		if d.x != nil {
			return d.lost(d.x.Write(ftl.LPN(r.LPN), r.Data))
		}
		return d.lost(d.base.Write(ftl.LPN(r.LPN), r.Data))
	case ncq.OpTrim:
		d.chargeCmd(0)
		if d.x != nil {
			return d.lost(d.x.Trim(ftl.LPN(r.LPN)))
		}
		return d.lost(d.base.Unmap(ftl.LPN(r.LPN)))
	case ncq.OpBarrier:
		// Flush-cache: the mapping table becomes durable. On OpenSSD this
		// is the expensive operation behind every fsync (§6.3.4).
		d.chargeCmd(0)
		d.sched.ChargeController(d.prof.BarrierOverhead)
		if d.x != nil {
			return d.lost(d.x.Barrier())
		}
		return d.lost(d.base.Barrier())
	case ncq.OpReadTx:
		if d.x == nil {
			return ErrNotTransactional
		}
		d.chargeCmd(1)
		return d.lost(d.x.ReadTx(core.TxID(r.TID), ftl.LPN(r.LPN), r.Buf))
	case ncq.OpWriteTx:
		if d.x == nil {
			return ErrNotTransactional
		}
		d.chargeCmd(1)
		return d.lost(d.x.WriteTx(core.TxID(r.TID), ftl.LPN(r.LPN), r.Data))
	case ncq.OpCommit:
		if d.x == nil {
			return ErrNotTransactional
		}
		// commit(t) doubles as the write barrier of the transaction's
		// fsync ("X-FTL invokes a commit command once as part of a fsync
		// system call, which plays the same role as a write barrier").
		d.chargeCmd(0)
		d.sched.ChargeController(d.prof.BarrierOverhead)
		return d.lost(d.x.Commit(core.TxID(r.TID)))
	case ncq.OpAbort:
		if d.x == nil {
			return ErrNotTransactional
		}
		d.chargeCmd(0)
		return d.lost(d.x.Abort(core.TxID(r.TID)))
	case ncq.OpSnapRead:
		if d.x == nil {
			return ErrNotTransactional
		}
		d.chargeCmd(1)
		return d.lost(d.x.SnapshotRead(core.SnapID(r.TID), ftl.LPN(r.LPN), r.Buf))
	case ncq.OpPrepare:
		if d.x == nil {
			return ErrNotTransactional
		}
		d.chargeCmd(0)
		d.sched.ChargeController(d.prof.BarrierOverhead)
		return d.lost(d.x.Prepare(core.TxID(r.TID)))
	default:
		return fmt.Errorf("storage: unknown op %v", r.Op)
	}
}

// lost inspects a command error: when an armed power cut tripped
// mid-command (the error wraps nand.ErrPowerLost), the device drops its
// volatile firmware state exactly as PowerCut does, so the caller must
// Restart before issuing further commands.
func (d *Device) lost(err error) error {
	if err != nil && errors.Is(err, nand.ErrPowerLost) {
		d.dropVolatileState()
	}
	return err
}

func (d *Device) dropVolatileState() {
	if d.x != nil {
		d.x.PowerCut()
	} else {
		d.base.PowerCut()
	}
}

// chargeCmd accounts controller time for one host command, with
// optional payload transfer. Called from execute with a scheduler
// command open, so the cost serializes on the controller/bus resource.
func (d *Device) chargeCmd(pages int) {
	d.cmds.Add(1)
	d.sched.ChargeController(d.prof.CmdOverhead + time.Duration(pages)*d.prof.TransferPerPage)
}

// InDoubt lists prepared transactions the last Restart recovered whose
// coordinator decision is unknown to this device. Each must be resolved
// with Commit or Abort.
func (d *Device) InDoubt() []uint64 {
	if d.x == nil {
		return nil
	}
	ids := d.x.InDoubt()
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	return out
}

// SnapshotOpen pins the committed state as of now and returns a
// snapshot handle id plus the commit sequence the snapshot observed.
// It is a control-plane command (DRAM-only in the firmware: one
// sequence number is recorded), so it carries no simulated latency; it
// serializes with in-flight command execution on the queue lock,
// observing exactly the commits that have executed. The sequence keys
// reader-pool generations: two snapshots with equal sequence (and no
// intervening power cut) pin identical committed states.
func (d *Device) SnapshotOpen() (core.SnapID, uint64, error) {
	if d.x == nil {
		return 0, 0, ErrNotTransactional
	}
	var (
		id  core.SnapID
		seq uint64
		err error
	)
	d.q.Exclusive(func() {
		id, err = d.x.OpenSnapshot()
		seq = d.x.CommitSeq()
	})
	return id, seq, err
}

// CommitSeq samples the device's committed-batch sequence without
// entering the command queue (lock-free atomic mirror). Returns 0 on a
// non-transactional device.
func (d *Device) CommitSeq() uint64 {
	if d.x == nil {
		return 0
	}
	return d.x.CommitSeq()
}

// SnapshotClose releases a snapshot handle, letting the device reclaim
// superseded page versions no other snapshot still pins.
func (d *Device) SnapshotClose(id core.SnapID) error {
	if d.x == nil {
		return ErrNotTransactional
	}
	var err error
	d.q.Exclusive(func() {
		err = d.x.CloseSnapshot(id)
	})
	return err
}

// PowerCut simulates pulling the plug at a command boundary: volatile
// controller state is lost, in-flight queued commands die with it, and
// the chip refuses further operations until Restart.
func (d *Device) PowerCut() {
	d.q.Exclusive(func() {
		d.base.Chip().PowerOff()
		d.dropVolatileState()
	})
	d.q.Abandon()
}

// PowerCutAfter schedules a power cut during the n-th NAND operation
// (read, program or erase) counted from now; n == 1 interrupts the very
// next operation. Unlike PowerCut, this lands the cut in the middle of
// firmware activity — mid-GC, mid-barrier, mid-commit — leaving torn
// pages or half-erased blocks behind. When the cut trips, the in-flight
// command returns an error wrapping nand.ErrPowerLost, the queue drops
// everything outstanding, and the device behaves as after PowerCut
// until Restart.
func (d *Device) PowerCutAfter(n int64) {
	d.q.Exclusive(func() {
		d.base.Chip().ArmPowerCut(n)
	})
}

// NANDOps reports how many NAND operations (reads, programs, erases)
// the device has executed; it is the time base for PowerCutAfter.
func (d *Device) NANDOps() int64 { return d.base.Chip().OpCount() }

// Restart powers the device back on and runs firmware recovery as one
// command window: every channel comes back idle, and the recovery's
// reads and programs are charged to their units, so its bulk scans
// pipeline across them. The recovery's duration is the window's span.
func (d *Device) Restart() error {
	var (
		err   error
		start time.Duration
	)
	end := d.q.Exclusive(func() {
		start = d.clock.Now()
		chip := d.base.Chip()
		prevOrigin := chip.SetOrigin(trace.ORecovery)
		chip.Restore()
		d.sched.Reset()
		if d.x != nil {
			err = d.x.Restart()
		} else {
			err = d.base.Restart()
		}
		chip.SetOrigin(prevOrigin)
	})
	if err != nil {
		return err
	}
	// The clock stands still inside a window, so the firmware could not
	// time its own recovery.
	d.base.TimeRecovery(end - start)
	if d.tracer != nil {
		d.tracer.Record(trace.Event{
			Layer: trace.LXFTL, Kind: trace.KXRecover,
			Start: start, Dur: end - start,
			Aux: d.base.LastRecovery().ScanPages, Origin: trace.ORecovery,
		})
	}
	// Re-open the abandoned queue only once recovery succeeded — and
	// outside the Exclusive block (Resume takes the queue lock).
	d.q.Resume()
	return nil
}

// Health reports the device's wear state: how many blocks have been
// retired against the spare reserve, and whether the reserve is
// exhausted (WornOut — writes fail with ErrWornOut).
func (d *Device) Health() Health {
	h := Health{
		RetiredBlocks: d.base.BadBlockCount(),
		SpareBlocks:   d.base.Config().SpareBlocks,
	}
	switch {
	case d.base.WornOut():
		h.State = WornOut
	case h.RetiredBlocks > 0:
		h.State = Degraded
	}
	return h
}

// LastRecovery reports how the most recent Restart brought the device
// up: the fast mapping-image path, or the full-device OOB scan, with
// page counts and the simulated time it cost.
func (d *Device) LastRecovery() ftl.RecoveryInfo { return d.base.LastRecovery() }

// CorruptMeta is a fault-injection hook (test/bench only): it corrupts
// or erases every flash page of one persisted metadata structure —
// "map" for the mapping-table group pages, or a meta slot name (such as
// "bbt" or "xl2p") for that slot's chain. It returns the number of
// pages damaged. The next Restart must detect the damage and fall back
// to the OOB scan path.
func (d *Device) CorruptMeta(target string, erase bool) (int, error) {
	var (
		n   int
		err error
	)
	d.q.Exclusive(func() {
		n, err = d.base.CorruptMeta(target, erase)
	})
	return n, err
}
