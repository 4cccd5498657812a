// Package core implements X-FTL, the paper's primary contribution: a
// transactional flash translation layer that turns the copy-on-write
// behaviour flash storage already needs into atomic, durable
// propagation of arbitrary groups of page updates.
//
// The heart of X-FTL is the transactional logical-to-physical mapping
// table, X-L2P (§4.2). Each entry is (tid, lpn, newPPN, status): while
// a transaction is active its new page versions are reachable only
// through X-L2P and the old committed versions stay in the base L2P
// table, so readers are never blocked and aborts are free. Commit marks
// the transaction's entries committed, persists the whole X-L2P table
// to flash copy-on-write (the atomic commit point), and folds the new
// physical addresses into the base L2P. Garbage collection treats a
// physical page as live if either table references it (§5.3).
//
// The extended device command set of §4.2 maps to the methods
// WriteTx (write(t,p)), ReadTx (read(t,p)), Commit (commit(t)) and
// Abort (abort(t)).
package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/trace"
)

// TxID identifies a transaction as assigned by the file system (§5.2:
// "transaction ids are managed by the file system instead of SQLite").
type TxID uint64

// Status is the state of an X-L2P entry's owning transaction.
type Status uint8

// X-L2P entry statuses (§5.3).
const (
	StatusActive Status = iota
	StatusCommitted
	StatusAborted
	// StatusPrepared marks the entries of a transaction that has passed
	// phase one of a cross-device two-phase commit: its fate belongs to
	// the fleet coordinator, so a crash recovers the entries as in-doubt
	// rather than discarding them. The value fits the 2-bit status field
	// of the 16-byte on-flash entry encoding.
	StatusPrepared
)

func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	case StatusPrepared:
		return "prepared"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// EntrySize is the on-flash size of one X-L2P entry in bytes (§5.3:
// "each X-L2P entry is only 16 bytes long").
const EntrySize = 16

// Errors returned by X-FTL.
var (
	ErrTableFull       = errors.New("xftl: X-L2P table is full")
	ErrConflict        = errors.New("xftl: page has an uncommitted update by another transaction")
	ErrPowerCut        = errors.New("xftl: device is powered off; call Restart")
	ErrNilBaseFTL      = errors.New("xftl: nil base FTL")
	ErrUnknownSnapshot = errors.New("xftl: unknown snapshot id")
)

// SnapID identifies an open device snapshot handle.
type SnapID uint64

// oldVersion records a superseded committed page version that must stay
// readable for open snapshots: ppn held the page's content until commit
// sequence `until` installed a newer version. ppn == InvalidPPN means
// the page did not exist (was unmapped) before `until`.
type oldVersion struct {
	ppn   nand.PPN
	until uint64
}

// Config tunes X-FTL.
type Config struct {
	// TableEntries bounds the number of concurrent X-L2P entries. The
	// paper's prototype uses 500 entries (8 KB) or 1000 (16 KB).
	TableEntries int
	// CommitMapPages is the minimum number of mapping pages one commit
	// stores (the X-L2P image plus incremental L2P group propagation).
	// Calibrated from the paper's Table 1: X-FTL issues roughly 20 more
	// flash writes per transaction than its host writes, versus ~60 for
	// each full-map barrier of the baseline firmware. Zero keeps the
	// exact dirty-group count (the idealized ablation).
	CommitMapPages int
}

// compactPinned triggers a version-list compaction pass from the commit
// path whenever the pinned-page count reaches this many entries,
// reclaiming superseded versions that fell between the open snapshots'
// sequences. Snapshot close always compacts; this bounds growth between
// closes.
const compactPinned = 256

// DefaultConfig matches the paper's small-table configuration with the
// Table-1-calibrated commit cost.
func DefaultConfig() Config {
	return Config{TableEntries: 500, CommitMapPages: 20}
}

// entry is one volatile X-L2P row.
type entry struct {
	tid    TxID
	lpn    ftl.LPN
	newPPN nand.PPN
	status Status
}

// imageEntry is one row of the flash-resident X-L2P image, the shadow
// of what a post-crash recovery scan would read back.
type imageEntry struct {
	tid    TxID
	lpn    ftl.LPN
	ppn    nand.PPN
	status Status
}

// Stats counts transactional command traffic.
type Stats struct {
	TxWrites    int64 // write(t,p) commands
	TxReads     int64 // read(t,p) commands served from X-L2P or L2P
	Commits     int64
	Aborts      int64
	Prepares    int64 // prepare(t) commands (2PC phase one)
	InDoubt     int64 // prepared transactions rebuilt by the last Restart
	TableImages int64 // X-L2P table images programmed to flash
	GCReflushes int64 // image rewrites forced by GC relocating a committed page
	Snapshots   int64 // snapshot handles opened
	SnapReads   int64 // reads served through a snapshot handle
	SnapOldHits int64 // snapshot reads that needed a superseded version
	// SnapEvictions counts superseded versions reclaimed by compaction
	// while other snapshots stayed open — versions whose readable
	// sequence interval held no open snapshot (the long-lived-snapshot
	// leak fix; plain oldest-snapshot pruning cannot touch these).
	SnapEvictions int64
}

// XFTL is a transactional FTL layered over the baseline page-mapping
// FTL. It is not safe for concurrent use (firmware is single-threaded).
type XFTL struct {
	base *ftl.FTL
	cfg  Config
	// compactAt is compactPinned; tests lower it to reach the pass.
	compactAt int

	byLPN map[ftl.LPN]*entry
	byPPN map[nand.PPN]*entry
	byTx  map[TxID][]*entry

	// Flash-resident X-L2P image shadow. Committed rows must be
	// protected from GC (their mapping may only exist here until the
	// base map image catches up) and must be re-applied at recovery.
	// Prepared rows are equally protected: they are the durable record
	// of an in-doubt two-phase-commit participant, and losing their
	// pages would make a coordinator-decided commit unredoable.
	image          []imageEntry
	imageCommitted map[nand.PPN]int // ppn -> index into image
	imagePrepared  map[nand.PPN]int // ppn -> index into image

	// Storage reused from commit to commit, so the steady-state command
	// path allocates nothing of its own: rows and per-transaction row
	// lists retired by Commit/Abort/Trim, the previous image's backing
	// array (flushImage builds the next one in it), and the buffer the
	// image is encoded into (the FTL copies the payload it is handed).
	freeEntries []*entry
	freeLists   [][]*entry
	imageSpare  []imageEntry
	imageEnc    []byte

	// Snapshot (MVCC) state. The paper's §5 observation — "readers are
	// never blocked" because the old committed version stays reachable —
	// is generalized here to long-lived read transactions: a snapshot
	// pins the committed version set as of its open. commitSeq counts
	// atomic batches of committed mapping changes; snaps maps each open
	// snapshot to the commitSeq it observed; versions holds superseded
	// committed versions some snapshot can still read, in ascending
	// `until` order; pinned indexes their physical pages for the GC hook.
	commitSeq uint64
	// seqMirror shadows commitSeq atomically so concurrent host-side
	// consumers (the reader pool's generation check) can sample the
	// committed sequence without entering the firmware's command queue.
	seqMirror atomic.Uint64
	nextSnap  SnapID
	snaps     map[SnapID]uint64
	versions  map[ftl.LPN][]oldVersion
	pinned    map[nand.PPN]ftl.LPN

	stats      *metrics.FlashCounters
	xstats     Stats
	tracer     *trace.Tracer
	peakPinned int // high-water mark of len(pinned) (version-list bound gauge)
	powerOff   bool
	hookArmed  bool
}

// New layers X-FTL over a baseline FTL and installs itself as the
// FTL's GC hook.
func New(base *ftl.FTL, cfg Config, stats *metrics.FlashCounters) (*XFTL, error) {
	if base == nil {
		return nil, ErrNilBaseFTL
	}
	if cfg.TableEntries <= 0 {
		cfg = DefaultConfig()
	}
	x := &XFTL{
		base:           base,
		cfg:            cfg,
		compactAt:      compactPinned,
		byLPN:          make(map[ftl.LPN]*entry),
		byPPN:          make(map[nand.PPN]*entry),
		byTx:           make(map[TxID][]*entry),
		imageCommitted: make(map[nand.PPN]int),
		imagePrepared:  make(map[nand.PPN]int),
		snaps:          make(map[SnapID]uint64),
		versions:       make(map[ftl.LPN][]oldVersion),
		pinned:         make(map[nand.PPN]ftl.LPN),
		stats:          stats,
	}
	base.SetHook(x)
	x.hookArmed = true
	return x, nil
}

// SetTracer installs (or, with nil, removes) the event tracer.
func (x *XFTL) SetTracer(t *trace.Tracer) { x.tracer = t }

// Stats returns a copy of the transactional command counters.
func (x *XFTL) Stats() Stats { return x.xstats }

// PageSize reports the device page size.
func (x *XFTL) PageSize() int { return x.base.PageSize() }

// LogicalPages reports the exported logical capacity in pages.
func (x *XFTL) LogicalPages() int64 { return x.base.LogicalPages() }

// ActiveEntries reports how many X-L2P rows are currently in use.
func (x *XFTL) ActiveEntries() int { return len(x.byLPN) }

// WriteTx implements write(t,p): the new content is programmed into a
// clean flash page and an X-L2P entry (t, p, paddr, active) is added or
// updated; the old committed version stays reachable through L2P.
func (x *XFTL) WriteTx(tid TxID, lpn ftl.LPN, data []byte) error {
	if x.powerOff {
		return ErrPowerCut
	}
	x.xstats.TxWrites++
	if e, ok := x.byLPN[lpn]; ok {
		if e.tid != tid {
			return fmt.Errorf("%w: lpn %d held by tx %d", ErrConflict, lpn, e.tid)
		}
		newPPN, err := x.base.WriteRawTx(lpn, data, uint64(tid))
		if err != nil {
			return err
		}
		// The superseded uncommitted version is garbage immediately:
		// recovery discards active image rows, so nothing else needs it.
		delete(x.byPPN, e.newPPN)
		if err := x.base.InvalidatePPN(e.newPPN); err != nil {
			return err
		}
		e.newPPN = newPPN
		x.byPPN[newPPN] = e
		return nil
	}
	if len(x.byLPN) >= x.cfg.TableEntries {
		return fmt.Errorf("%w: capacity %d", ErrTableFull, x.cfg.TableEntries)
	}
	newPPN, err := x.base.WriteRawTx(lpn, data, uint64(tid))
	if err != nil {
		return err
	}
	e := x.newEntry()
	*e = entry{tid: tid, lpn: lpn, newPPN: newPPN, status: StatusActive}
	x.byLPN[lpn] = e
	x.byPPN[newPPN] = e
	list, ok := x.byTx[tid]
	if !ok && len(x.freeLists) > 0 {
		list = x.freeLists[len(x.freeLists)-1]
		x.freeLists = x.freeLists[:len(x.freeLists)-1]
	}
	x.byTx[tid] = append(list, e)
	return nil
}

// newEntry returns a row to fill in, a retired one when there is one.
func (x *XFTL) newEntry() *entry {
	if n := len(x.freeEntries); n > 0 {
		e := x.freeEntries[n-1]
		x.freeEntries = x.freeEntries[:n-1]
		return e
	}
	return new(entry)
}

// retireTx forgets a finished transaction's row list and keeps the rows
// and the list for reuse. The caller has already removed every row from
// byLPN and byPPN, so nothing else references them.
func (x *XFTL) retireTx(tid TxID, entries []*entry) {
	delete(x.byTx, tid)
	if len(entries) == 0 {
		return
	}
	x.freeEntries = append(x.freeEntries, entries...)
	x.freeLists = append(x.freeLists, entries[:0])
}

// ReadTx implements read(t,p): the updater sees its own uncommitted
// version; every other reader gets the last committed copy.
func (x *XFTL) ReadTx(tid TxID, lpn ftl.LPN, buf []byte) error {
	if x.powerOff {
		return ErrPowerCut
	}
	x.xstats.TxReads++
	if e, ok := x.byLPN[lpn]; ok && e.tid == tid {
		return x.base.ReadPPN(e.newPPN, buf)
	}
	return x.base.Read(lpn, buf)
}

// Read returns the last committed version of a page regardless of any
// in-flight transaction (the plain, tid-less SATA read).
func (x *XFTL) Read(lpn ftl.LPN, buf []byte) error {
	if x.powerOff {
		return ErrPowerCut
	}
	return x.base.Read(lpn, buf)
}

// Write performs a non-transactional copy-on-write update (the plain
// SATA write, used for pages outside any transaction). It fails if the
// page has an uncommitted transactional update.
func (x *XFTL) Write(lpn ftl.LPN, data []byte) error {
	if x.powerOff {
		return ErrPowerCut
	}
	if e, ok := x.byLPN[lpn]; ok {
		return fmt.Errorf("%w: lpn %d held by tx %d", ErrConflict, lpn, e.tid)
	}
	if len(x.snaps) == 0 {
		return x.base.Write(lpn, data)
	}
	// With snapshots open the superseded version must be pinned before
	// the remap retires it, so split base.Write into its primitives.
	newPPN, err := x.base.WriteRaw(lpn, data)
	if err != nil {
		return err
	}
	x.supersede(lpn)
	x.bumpSeq()
	return x.base.Map(lpn, newPPN)
}

// Trim discards a logical page (file deletion path). An uncommitted
// update to the page is abandoned along with the committed mapping.
func (x *XFTL) Trim(lpn ftl.LPN) error {
	if x.powerOff {
		return ErrPowerCut
	}
	if e, ok := x.byLPN[lpn]; ok {
		x.dropEntry(e)
		if err := x.base.InvalidatePPN(e.newPPN); err != nil {
			return err
		}
	}
	x.supersede(lpn)
	x.bumpSeq()
	return x.base.Unmap(lpn)
}

// Commit implements commit(t), following Figure 4 of the paper:
//
//  1. flip the transaction's X-L2P entries from active to committed;
//  2. write the entire X-L2P table to a new flash location (CoW) and
//     atomically update its pointer in the FTL meta block — this is the
//     durable commit point;
//  3. remap the updated LPNs in the base L2P table to the new PPNs;
//  4. propagate the dirtied base map groups incrementally.
//
// Unlike the baseline firmware's write barrier, commit never stores the
// full mapping table: the small X-L2P image already makes the
// transaction durable, which is the core of the paper's cost advantage
// ("the cost of an additional write of mapping table to flash memory
// contributed to the gap in IOPS", §6.3.4).
//
// Committing an unknown tid is legal and acts as a pure write barrier:
// SQLite issues fsync calls for read-only transactions too.
func (x *XFTL) Commit(tid TxID) error {
	if x.powerOff {
		return ErrPowerCut
	}
	x.xstats.Commits++
	entries := x.byTx[tid]
	defer x.closeTx(x.openTx(), trace.KXCommit, tid, len(entries))
	if len(entries) == 0 {
		return x.base.Barrier()
	}
	if entries[0].status == StatusPrepared {
		// Phase two of a cross-device 2PC. The ordering inverts: the
		// commit-log append comes FIRST, because the durable prepared
		// rows already carry the page set. A crash after the append
		// recovers as "prepared rows whose tid is logged" — applied as
		// committed — while a crash before it stays in-doubt for the
		// fleet coordinator to resolve. Writing the image first (as the
		// plain path does) would open a window where committed-status
		// rows with an unlogged tid are indistinguishable from an
		// ordinary torn commit and would be wrongly discarded.
		if err := x.base.NoteCommittedTx(uint64(tid)); err != nil {
			return err
		}
		for _, e := range entries {
			e.status = StatusCommitted
		}
		if err := x.flushImage(); err != nil {
			return err
		}
	} else {
		for _, e := range entries {
			e.status = StatusCommitted
		}
		if err := x.flushImage(); err != nil {
			// The durable commit point was not reached (program failure or
			// power cut mid-image): flip the entries back so the transaction
			// is still active — matching what recovery would conclude from
			// the old flash-resident image.
			for _, e := range entries {
				e.status = StatusActive
			}
			return err
		}
		// The committed-transaction log entry is the durable commit point:
		// recovery applies an image row (and accepts the transaction's CoW
		// data pages during a full-device scan) only when its tid is logged.
		if err := x.base.NoteCommittedTx(uint64(tid)); err != nil {
			for _, e := range entries {
				e.status = StatusActive
			}
			return err
		}
	}
	for _, e := range entries {
		// Pin the superseded committed version for open snapshots before
		// the remap would retire it; the whole batch shares one sequence
		// boundary so a snapshot sees all of this commit or none of it.
		x.supersede(e.lpn)
		if err := x.base.Map(e.lpn, e.newPPN); err != nil {
			return err
		}
		delete(x.byLPN, e.lpn)
		delete(x.byPPN, e.newPPN)
	}
	x.bumpSeq()
	x.retireTx(tid, entries)
	if len(x.pinned) >= x.compactAt {
		x.compact()
	}
	flushed, err := x.base.FlushDirtyGroups()
	if err != nil {
		return err
	}
	// Pad to the calibrated per-commit mapping cost (controller
	// housekeeping the incremental model doesn't capture). The one-page
	// commit-log append above counts toward the budget.
	pad := x.cfg.CommitMapPages - flushed - x.imagePages() - 1
	for i := 0; i < pad; i++ {
		if err := x.base.WriteMetaSlot("xl2p-housekeeping", 1); err != nil {
			return err
		}
	}
	return nil
}

// txSpan is an open commit, abort or prepare: when it began and the
// chip origin it displaced.
type txSpan struct {
	start time.Duration
	prev  trace.Origin
}

// openTx opens the span of a commit, abort or prepare; closeTx, deferred
// by the command, closes it. Everything the command does (image CoW
// flush, commit-log append, remap + map-group flushes, housekeeping
// pad) runs with commit origin, so its NAND work attributes correctly.
// Untraced, the pair costs two plain stores and a pointer compare.
func (x *XFTL) openTx() txSpan {
	s := txSpan{prev: x.base.Chip().SetOrigin(trace.OCommit)}
	if x.tracer != nil {
		s.start = x.tracer.Now()
	}
	return s
}

func (x *XFTL) closeTx(s txSpan, kind trace.Kind, tid TxID, entries int) {
	chip := x.base.Chip()
	chip.SetOrigin(s.prev)
	if x.tracer != nil {
		x.tracer.Record(trace.Event{
			Layer: trace.LXFTL, Kind: kind,
			Start: s.start, Dur: x.tracer.Now() - s.start,
			TID: uint64(tid), Aux: int64(entries),
			Sess: chip.Session(), Origin: trace.OCommit,
		})
	}
}

// Abort implements abort(t): the entries flip to aborted and the new
// physical pages are invalidated so GC can reclaim them (§5.3). No
// flash write is needed — a crash before the next table image is
// written recovers the transaction as active and discards it.
func (x *XFTL) Abort(tid TxID) error {
	if x.powerOff {
		return ErrPowerCut
	}
	x.xstats.Aborts++
	entries := x.byTx[tid]
	prepared := len(entries) > 0 && entries[0].status == StatusPrepared
	defer x.closeTx(x.openTx(), trace.KXAbort, tid, len(entries))
	for _, e := range entries {
		e.status = StatusAborted
		delete(x.byLPN, e.lpn)
		delete(x.byPPN, e.newPPN)
		if err := x.base.InvalidatePPN(e.newPPN); err != nil {
			return err
		}
	}
	x.retireTx(tid, entries)
	if prepared {
		// A prepared transaction's rows are already durable in the
		// flash-resident image; without a rewrite a crash would resurrect
		// the transaction as in-doubt and re-ask the coordinator forever.
		// Aborting a 2PC participant therefore pays one image flush to
		// durably retract the prepare.
		return x.flushImage()
	}
	return nil
}

// Prepare implements phase one of a cross-device two-phase commit: the
// transaction's X-L2P entries flip to prepared and the table image is
// flushed, making the page set durable without making it visible. After
// Prepare returns, the participant guarantees it can commit — the CoW
// pages and the prepared image rows survive power loss (GC treats
// prepared rows as live) — but readers still see the pre-transaction
// versions, and recovery reports the transaction as in-doubt until a
// coordinator decision arrives via Commit or Abort.
//
// Preparing a tid with no writes is legal and degrades to a barrier,
// mirroring Commit on a read-only participant.
func (x *XFTL) Prepare(tid TxID) error {
	if x.powerOff {
		return ErrPowerCut
	}
	x.xstats.Prepares++
	entries := x.byTx[tid]
	defer x.closeTx(x.openTx(), trace.KXPrepare, tid, len(entries))
	if len(entries) == 0 {
		return x.base.Barrier()
	}
	for _, e := range entries {
		e.status = StatusPrepared
	}
	if err := x.flushImage(); err != nil {
		// Prepare did not reach flash: the transaction is still merely
		// active, which is exactly what recovery will conclude.
		for _, e := range entries {
			e.status = StatusActive
		}
		return err
	}
	return nil
}

// InDoubt lists the prepared transactions the last Restart rebuilt from
// the flash-resident image — participants whose coordinator decision was
// lost with volatile state. Each must be resolved by Commit or Abort
// before its pages are reclaimable. Sorted for determinism.
func (x *XFTL) InDoubt() []TxID {
	var ids []TxID
	for tid, entries := range x.byTx {
		if len(entries) > 0 && entries[0].status == StatusPrepared {
			ids = append(ids, tid)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Barrier flushes the base mapping table without a transaction (plain
// fsync on a file with no transactional writes).
func (x *XFTL) Barrier() error {
	if x.powerOff {
		return ErrPowerCut
	}
	return x.base.Barrier()
}

// OpenSnapshot pins the committed state as of now and returns a handle
// that reads it until closed. Uncommitted transactional versions are
// invisible to the snapshot (they are reachable only through X-L2P),
// and later commits leave the snapshot's version set untouched: the
// superseded physical pages are pinned against garbage collection until
// every snapshot that can read them closes. Opening a snapshot costs no
// flash I/O — it records a single sequence number.
func (x *XFTL) OpenSnapshot() (SnapID, error) {
	if x.powerOff {
		return 0, ErrPowerCut
	}
	x.xstats.Snapshots++
	x.nextSnap++
	x.snaps[x.nextSnap] = x.commitSeq
	return x.nextSnap, nil
}

// CloseSnapshot releases a snapshot handle and reclaims any superseded
// versions no remaining snapshot can read. Closing after a power cut is
// a no-op: the handle died with the volatile state.
func (x *XFTL) CloseSnapshot(id SnapID) error {
	if x.powerOff {
		return nil
	}
	if _, ok := x.snaps[id]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSnapshot, id)
	}
	delete(x.snaps, id)
	x.compact()
	return nil
}

// CommitSeq reports the current committed-batch sequence. It is safe to
// call from any goroutine without entering the firmware command queue:
// the reader pool compares pooled snapshots against it on every
// checkout, where an exclusive queue pass would dominate the saved
// open cost.
func (x *XFTL) CommitSeq() uint64 { return x.seqMirror.Load() }

// bumpSeq advances the committed-batch sequence and its atomic mirror.
func (x *XFTL) bumpSeq() {
	x.commitSeq++
	x.seqMirror.Store(x.commitSeq)
}

// OpenSnapshots reports how many snapshot handles are currently open.
func (x *XFTL) OpenSnapshots() int { return len(x.snaps) }

// PinnedPages reports how many superseded physical pages are pinned
// against garbage collection on behalf of open snapshots.
func (x *XFTL) PinnedPages() int { return len(x.pinned) }

// PeakPinnedPages reports the high-water mark of PinnedPages over the
// device's lifetime — the observable half of the version-list bound:
// with the skip-unreadable-generations rule in supersede, the peak is
// bounded by (distinct LPNs written under open snapshots) × (snapshot
// open/close episodes), not by total write traffic.
func (x *XFTL) PeakPinnedPages() int { return x.peakPinned }

// SnapshotRead serves a read from the version set pinned by snapshot
// id: the first superseded version newer than the snapshot's sequence
// if one exists, otherwise the current committed mapping (which is then
// unchanged since the snapshot opened).
func (x *XFTL) SnapshotRead(id SnapID, lpn ftl.LPN, buf []byte) error {
	if x.powerOff {
		return ErrPowerCut
	}
	seq, ok := x.snaps[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSnapshot, id)
	}
	x.xstats.SnapReads++
	for _, v := range x.versions[lpn] {
		if v.until > seq {
			x.xstats.SnapOldHits++
			if v.ppn == nand.InvalidPPN {
				// The page did not exist at snapshot time.
				clear(buf[:min(len(buf), x.base.PageSize())])
				return nil
			}
			return x.base.ReadPPN(v.ppn, buf)
		}
	}
	return x.base.Read(lpn, buf)
}

// supersede records lpn's current committed mapping as an old version
// readable by open snapshots, pinning its physical page against GC. It
// must run before the mapping change lands (the remap path retires the
// old page unless the hook reports it live); the caller bumps commitSeq
// once per atomic batch. With no snapshots open it does nothing and
// superseded pages retire immediately, as before.
func (x *XFTL) supersede(lpn ftl.LPN) {
	if len(x.snaps) == 0 {
		return
	}
	// The outgoing mapping has been current since the last recorded
	// supersession of this lpn (0 = since before tracking started). It
	// is readable only by a snapshot opened at or after that point; if
	// none is, skip the record and let the page retire immediately —
	// otherwise a long-lived snapshot would pin every generation of a
	// hot page instead of just the one it can read.
	start := uint64(0)
	if vs := x.versions[lpn]; len(vs) > 0 {
		start = vs[len(vs)-1].until
	}
	needed := false
	for _, seq := range x.snaps {
		if seq >= start {
			needed = true
			break
		}
	}
	if !needed {
		return
	}
	old := x.base.Mapping(lpn)
	x.versions[lpn] = append(x.versions[lpn], oldVersion{ppn: old, until: x.commitSeq + 1})
	if old != nand.InvalidPPN {
		x.pinned[old] = lpn
		if len(x.pinned) > x.peakPinned {
			x.peakPinned = len(x.pinned)
		}
	}
}

// compact drops every version record no open snapshot can read and
// hands its physical page back to garbage collection. A version v with
// predecessor until `start` (0 for the head of the list) serves exactly
// the snapshots whose sequence lies in [start, v.until): SnapshotRead
// returns the first version with until > seq. The old prefix-only prune
// handled the [0, minSeq] range; this pass also reclaims interior
// versions stranded between live snapshots — the leak a long-lived
// snapshot plus churning short snapshots creates over hot pages.
// Dropping an interval-empty version is safe against future opens too:
// a new snapshot's sequence is the current commitSeq, which is >= every
// recorded until, so it can never land inside a dropped interval.
func (x *XFTL) compact() {
	if len(x.versions) == 0 {
		return
	}
	seqs := make([]uint64, 0, len(x.snaps))
	for _, seq := range x.snaps {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	// anyIn reports whether some open snapshot sequence lies in
	// [start, until).
	anyIn := func(start, until uint64) bool {
		i := sort.Search(len(seqs), func(i int) bool { return seqs[i] >= start })
		return i < len(seqs) && seqs[i] < until
	}
	for lpn, vs := range x.versions {
		start := uint64(0)
		w := 0
		for _, v := range vs {
			if anyIn(start, v.until) {
				vs[w] = v
				w++
			} else {
				if v.ppn != nand.InvalidPPN {
					delete(x.pinned, v.ppn)
					x.base.ReleaseOrphan(v.ppn)
				}
				if len(seqs) > 0 {
					x.xstats.SnapEvictions++
				}
			}
			// The dropped interval is snapshot-free, so folding it into
			// the successor's range changes which snapshots it serves by
			// nothing; keeping start at v.until keeps the checks exact.
			start = v.until
		}
		switch {
		case w == 0:
			delete(x.versions, lpn)
		case w < len(vs):
			x.versions[lpn] = append(vs[:0:0], vs[:w]...)
		}
	}
}

// dropEntry removes an entry from all volatile indexes.
func (x *XFTL) dropEntry(e *entry) {
	delete(x.byLPN, e.lpn)
	delete(x.byPPN, e.newPPN)
	rest := x.byTx[e.tid][:0]
	for _, o := range x.byTx[e.tid] {
		if o != e {
			rest = append(rest, o)
		}
	}
	if len(rest) == 0 {
		delete(x.byTx, e.tid)
	} else {
		x.byTx[e.tid] = rest
	}
	x.freeEntries = append(x.freeEntries, e)
}

// imagePages reports how many flash pages one table image occupies.
func (x *XFTL) imagePages() int {
	bytes := x.cfg.TableEntries * EntrySize
	ps := x.base.PageSize()
	return (bytes + ps - 1) / ps
}

// appendImage serializes X-L2P rows onto buf in the paper's 16-byte
// format: tid (u64), lpn with the status in its top bits (u32), ppn
// (u32).
func appendImage(buf []byte, img []imageEntry) []byte {
	for _, r := range img {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.tid))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.lpn)|uint32(r.status)<<30)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.ppn))
	}
	return buf
}

// decodeImage parses a recovered X-L2P image payload. Trailing bytes
// that do not form a whole row are ignored.
func decodeImage(payload []byte) []imageEntry {
	img := make([]imageEntry, 0, len(payload)/EntrySize)
	for o := 0; o+EntrySize <= len(payload); o += EntrySize {
		lf := binary.LittleEndian.Uint32(payload[o+8:])
		img = append(img, imageEntry{
			tid:    TxID(binary.LittleEndian.Uint64(payload[o:])),
			lpn:    ftl.LPN(lf & 0x3FFFFFFF),
			ppn:    nand.PPN(int64(binary.LittleEndian.Uint32(payload[o+12:]))),
			status: Status(lf >> 30),
		})
	}
	return img
}

// flushImage writes the entire X-L2P table to flash copy-on-write and
// records the shadow the recovery path would read back. The new image is
// built beside the current shadow, which a failed write leaves in place.
func (x *XFTL) flushImage() error {
	img := x.imageSpare[:0]
	for _, e := range x.byLPN {
		img = append(img, imageEntry{tid: e.tid, lpn: e.lpn, ppn: e.newPPN, status: e.status})
	}
	// Rows in LPN order (an LPN has at most one row), not map order: the
	// image's bytes, and with them the run, repeat for the same seed.
	slices.SortFunc(img, func(a, b imageEntry) int { return cmp.Compare(a.lpn, b.lpn) })
	x.imageSpare = img[:0]
	if err := x.writeImage(img); err != nil {
		return err
	}
	x.image, x.imageSpare = img, x.image[:0]
	return nil
}

// writeImage persists an X-L2P image (checksummed, recoverable) and
// indexes its protected rows; the caller adopts img as the shadow.
func (x *XFTL) writeImage(img []imageEntry) error {
	x.imageEnc = appendImage(x.imageEnc[:0], img)
	if err := x.base.WriteMetaSlotData("xl2p", x.imageEnc, x.imagePages()); err != nil {
		return err
	}
	clear(x.imageCommitted)
	clear(x.imagePrepared)
	for i, r := range img {
		switch r.status {
		case StatusCommitted:
			x.imageCommitted[r.ppn] = i
		case StatusPrepared:
			x.imagePrepared[r.ppn] = i
		}
	}
	x.xstats.TableImages++
	return nil
}

// Live implements ftl.Hook: a physical page is protected from garbage
// collection while it is an active transaction's new version, a
// committed row of the current flash-resident table image, or a
// superseded version pinned by an open snapshot.
func (x *XFTL) Live(ppn nand.PPN) bool {
	if _, ok := x.byPPN[ppn]; ok {
		return true
	}
	if _, ok := x.pinned[ppn]; ok {
		return true
	}
	if _, ok := x.imageCommitted[ppn]; ok {
		return true
	}
	_, ok := x.imagePrepared[ppn]
	return ok
}

// Relocated implements ftl.Hook: GC moved a protected page. Volatile
// entries are updated in place. If a committed row of the flash image
// moved, the image must be rewritten: otherwise a crash would recover a
// mapping to an erased page.
func (x *XFTL) Relocated(old, new nand.PPN) {
	if e, ok := x.byPPN[old]; ok {
		delete(x.byPPN, old)
		e.newPPN = new
		x.byPPN[new] = e
	}
	if lpn, ok := x.pinned[old]; ok {
		delete(x.pinned, old)
		x.pinned[new] = lpn
		vs := x.versions[lpn]
		for i := range vs {
			if vs[i].ppn == old {
				vs[i].ppn = new
				break
			}
		}
	}
	if idx, ok := x.imageCommitted[old]; ok {
		delete(x.imageCommitted, old)
		x.image[idx].ppn = new
		x.imageCommitted[new] = idx
		x.xstats.GCReflushes++
		// Best-effort rewrite; GC is already mid-flight, so an error
		// here surfaces on the next commit instead.
		_ = x.writeImage(x.image)
	}
	if idx, ok := x.imagePrepared[old]; ok {
		delete(x.imagePrepared, old)
		x.image[idx].ppn = new
		x.imagePrepared[new] = idx
		x.xstats.GCReflushes++
		_ = x.writeImage(x.image)
	}
}

// PowerCut simulates sudden power loss: the volatile X-L2P indexes and
// the base FTL's volatile mapping state are gone. The flash-resident
// table image (x.image) survives, as it would on the device.
func (x *XFTL) PowerCut() {
	x.powerOff = true
	x.base.PowerCut()
}

// Restart performs X-FTL crash recovery (§5.4): both the L2P and X-L2P
// tables are loaded from flash; every X-L2P row whose status is
// committed AND whose transaction is in the durable commit log is
// reflected into the L2P table (idempotent); rows of incomplete
// transactions are discarded and their pages reclaimed.
func (x *XFTL) Restart() error {
	if !x.powerOff {
		return nil
	}
	x.powerOff = false
	// Volatile indexes are rebuilt empty. The pre-crash image shadow is
	// kept through base recovery: the hook still protects committed
	// image rows, so their pages survive the orphan sweep.
	x.byLPN = make(map[ftl.LPN]*entry)
	x.byPPN = make(map[nand.PPN]*entry)
	x.byTx = make(map[TxID][]*entry)
	// Snapshots are volatile session state: every open handle died with
	// power, and its pinned pages are reclaimed by the orphan sweep.
	x.snaps = make(map[SnapID]uint64)
	x.versions = make(map[ftl.LPN][]oldVersion)
	x.pinned = make(map[nand.PPN]ftl.LPN)
	if err := x.base.Restart(); err != nil {
		return err
	}
	// What flash actually holds wins over the RAM shadow: after a
	// metadata-destroying crash the scan may have recovered an older
	// image, or none at all (the committed data pages themselves were
	// then adopted directly from their spare records).
	x.xstats.InDoubt = 0
	for _, row := range decodeImage(x.base.MetaSlotData("xl2p")) {
		committed := row.status == StatusCommitted && x.base.TxCommitted(uint64(row.tid))
		// A prepared row whose tid reached the committed-transaction log
		// crashed between phase-two's log append and the image rewrite:
		// the decision is durable, so it replays exactly like a committed
		// row. A prepared row with an unlogged tid is in-doubt — its fate
		// belongs to the fleet coordinator — so instead of discarding it
		// we rebuild the X-L2P entry and wait for Commit or Abort.
		if row.status == StatusPrepared && x.base.TxCommitted(uint64(row.tid)) {
			committed = true
		}
		if !committed {
			if row.status != StatusPrepared {
				continue
			}
			if _, live := x.base.PageSeq(row.ppn); !live {
				// The CoW page itself did not survive (meta-destroying
				// crash fell back to the OOB scan, which keeps only
				// committed-tx pages): the participant cannot honor a
				// commit decision, so it reports abort via absence.
				continue
			}
			e := &entry{tid: row.tid, lpn: row.lpn, newPPN: row.ppn, status: StatusPrepared}
			x.byLPN[row.lpn] = e
			x.byPPN[row.ppn] = e
			if len(x.byTx[row.tid]) == 0 {
				x.xstats.InDoubt++
			}
			x.byTx[row.tid] = append(x.byTx[row.tid], e)
			continue
		}
		rowSeq, live := x.base.PageSeq(row.ppn)
		if !live {
			continue // version superseded and already reclaimed
		}
		// Never regress a newer version the recovered L2P already maps
		// (a post-commit rewrite of the same page can be newer than a
		// still-lingering image row).
		if cur := x.base.Mapping(row.lpn); cur != nand.InvalidPPN && cur != row.ppn {
			if curSeq, ok := x.base.PageSeq(cur); ok && curSeq > rowSeq {
				continue
			}
		}
		if err := x.base.Map(row.lpn, row.ppn); err != nil {
			return err
		}
	}
	if _, err := x.base.FlushDirtyGroups(); err != nil {
		return err
	}
	// The recovered mappings are now durable in the base map image;
	// write a fresh table image that drops the replayed committed rows
	// but preserves any rebuilt in-doubt prepared rows, so a second
	// crash before the coordinator resolves them changes nothing.
	return x.flushImage()
}
