// Package metrics defines the shared I/O counters reported in the
// paper's Table 1 and Figure 6: host-side page writes and fsync calls,
// split by destination (database file, journal/log file, file-system
// metadata), and FTL-side flash activity (page programs and reads
// including garbage-collection copies, GC invocations, block erases).
package metrics

import (
	"fmt"
	"sync/atomic"
)

// HostCounters accumulates I/O requests issued by the host software
// stack (SQLite plus the file system). The split matches the
// "Host-side" columns of the paper's Table 1.
type HostCounters struct {
	DBWrites      atomic.Int64 // page writes into a database file
	JournalWrites atomic.Int64 // page writes into a rollback journal or WAL file
	FSMetaWrites  atomic.Int64 // file-system metadata page writes (inodes, bitmaps, directory, fs journal)
	Reads         atomic.Int64 // page reads issued by the host
	Fsyncs        atomic.Int64 // fsync (and fsync-like barrier) system calls
}

// Reset zeroes every counter.
func (h *HostCounters) Reset() {
	h.DBWrites.Store(0)
	h.JournalWrites.Store(0)
	h.FSMetaWrites.Store(0)
	h.Reads.Store(0)
	h.Fsyncs.Store(0)
}

// Snapshot returns a plain-struct copy of the current values.
func (h *HostCounters) Snapshot() HostSnapshot {
	return HostSnapshot{
		DBWrites:      h.DBWrites.Load(),
		JournalWrites: h.JournalWrites.Load(),
		FSMetaWrites:  h.FSMetaWrites.Load(),
		Reads:         h.Reads.Load(),
		Fsyncs:        h.Fsyncs.Load(),
	}
}

// HostSnapshot is an immutable copy of HostCounters.
type HostSnapshot struct {
	DBWrites      int64
	JournalWrites int64
	FSMetaWrites  int64
	Reads         int64
	Fsyncs        int64
}

// TotalWrites reports all host-side page writes in the snapshot.
func (s HostSnapshot) TotalWrites() int64 {
	return s.DBWrites + s.JournalWrites + s.FSMetaWrites
}

// Sub returns the element-wise difference s - o, for measuring a window.
func (s HostSnapshot) Sub(o HostSnapshot) HostSnapshot {
	return HostSnapshot{
		DBWrites:      s.DBWrites - o.DBWrites,
		JournalWrites: s.JournalWrites - o.JournalWrites,
		FSMetaWrites:  s.FSMetaWrites - o.FSMetaWrites,
		Reads:         s.Reads - o.Reads,
		Fsyncs:        s.Fsyncs - o.Fsyncs,
	}
}

// FlashCounters accumulates activity inside the flash device, matching
// the "FTL-side" columns of Table 1, plus the reliability counters of
// the fault-injection layer (ECC corrections, read retries, media
// failures, bad-block retirements).
type FlashCounters struct {
	PageWrites  atomic.Int64 // flash page programs, including GC copies and map flushes
	PageReads   atomic.Int64 // flash page reads, including GC copy-out reads
	GCRuns      atomic.Int64 // garbage-collection invocations (per victim block)
	BlockErases atomic.Int64 // block erases (GC victims plus metadata blocks)

	// Reliability counters (zero on an ideal device).
	CorrectedBits      atomic.Int64 // bit errors corrected by ECC across all reads
	ReadRetries        atomic.Int64 // read-retry rounds charged near the ECC threshold
	UncorrectableReads atomic.Int64 // reads whose error count exceeded the ECC capability
	ProgramFails       atomic.Int64 // page programs that reported status fail
	EraseFails         atomic.Int64 // block erases that reported status fail
	RetiredBlocks      atomic.Int64 // blocks retired to the bad-block table
	TransientFaults    atomic.Int64 // transient interface faults injected (each failed attempt)
	UnitHangs          atomic.Int64 // channel/way hang episodes injected

	// Recovery counters (zero while the metadata fast path holds).
	MetaCRCFailures atomic.Int64 // meta pages rejected by header/payload CRC or identity check
	ImageRecoveries atomic.Int64 // mounts served by the mapping-image fast path
	ScanRecoveries  atomic.Int64 // mounts that fell back to the full-device OOB scan
	ScanPages       atomic.Int64 // physical pages visited by OOB scans
}

// Reset zeroes every counter.
func (f *FlashCounters) Reset() {
	f.PageWrites.Store(0)
	f.PageReads.Store(0)
	f.GCRuns.Store(0)
	f.BlockErases.Store(0)
	f.CorrectedBits.Store(0)
	f.ReadRetries.Store(0)
	f.UncorrectableReads.Store(0)
	f.ProgramFails.Store(0)
	f.EraseFails.Store(0)
	f.RetiredBlocks.Store(0)
	f.TransientFaults.Store(0)
	f.UnitHangs.Store(0)
	f.MetaCRCFailures.Store(0)
	f.ImageRecoveries.Store(0)
	f.ScanRecoveries.Store(0)
	f.ScanPages.Store(0)
}

// Snapshot returns a plain-struct copy of the current values.
func (f *FlashCounters) Snapshot() FlashSnapshot {
	return FlashSnapshot{
		PageWrites:         f.PageWrites.Load(),
		PageReads:          f.PageReads.Load(),
		GCRuns:             f.GCRuns.Load(),
		BlockErases:        f.BlockErases.Load(),
		CorrectedBits:      f.CorrectedBits.Load(),
		ReadRetries:        f.ReadRetries.Load(),
		UncorrectableReads: f.UncorrectableReads.Load(),
		ProgramFails:       f.ProgramFails.Load(),
		EraseFails:         f.EraseFails.Load(),
		RetiredBlocks:      f.RetiredBlocks.Load(),
		TransientFaults:    f.TransientFaults.Load(),
		UnitHangs:          f.UnitHangs.Load(),
		MetaCRCFailures:    f.MetaCRCFailures.Load(),
		ImageRecoveries:    f.ImageRecoveries.Load(),
		ScanRecoveries:     f.ScanRecoveries.Load(),
		ScanPages:          f.ScanPages.Load(),
	}
}

// FlashSnapshot is an immutable copy of FlashCounters.
type FlashSnapshot struct {
	PageWrites  int64
	PageReads   int64
	GCRuns      int64
	BlockErases int64

	CorrectedBits      int64
	ReadRetries        int64
	UncorrectableReads int64
	ProgramFails       int64
	EraseFails         int64
	RetiredBlocks      int64
	TransientFaults    int64
	UnitHangs          int64

	MetaCRCFailures int64
	ImageRecoveries int64
	ScanRecoveries  int64
	ScanPages       int64
}

// Sub returns the element-wise difference s - o.
func (s FlashSnapshot) Sub(o FlashSnapshot) FlashSnapshot {
	return FlashSnapshot{
		PageWrites:         s.PageWrites - o.PageWrites,
		PageReads:          s.PageReads - o.PageReads,
		GCRuns:             s.GCRuns - o.GCRuns,
		BlockErases:        s.BlockErases - o.BlockErases,
		CorrectedBits:      s.CorrectedBits - o.CorrectedBits,
		ReadRetries:        s.ReadRetries - o.ReadRetries,
		UncorrectableReads: s.UncorrectableReads - o.UncorrectableReads,
		ProgramFails:       s.ProgramFails - o.ProgramFails,
		EraseFails:         s.EraseFails - o.EraseFails,
		RetiredBlocks:      s.RetiredBlocks - o.RetiredBlocks,
		TransientFaults:    s.TransientFaults - o.TransientFaults,
		UnitHangs:          s.UnitHangs - o.UnitHangs,
		MetaCRCFailures:    s.MetaCRCFailures - o.MetaCRCFailures,
		ImageRecoveries:    s.ImageRecoveries - o.ImageRecoveries,
		ScanRecoveries:     s.ScanRecoveries - o.ScanRecoveries,
		ScanPages:          s.ScanPages - o.ScanPages,
	}
}

func (s FlashSnapshot) String() string {
	base := fmt.Sprintf("writes=%d reads=%d gc=%d erases=%d",
		s.PageWrites, s.PageReads, s.GCRuns, s.BlockErases)
	if s.CorrectedBits|s.ReadRetries|s.UncorrectableReads|s.ProgramFails|s.EraseFails|s.RetiredBlocks != 0 {
		base += fmt.Sprintf(" eccbits=%d retries=%d uncorrectable=%d progfail=%d erasefail=%d retired=%d",
			s.CorrectedBits, s.ReadRetries, s.UncorrectableReads, s.ProgramFails, s.EraseFails, s.RetiredBlocks)
	}
	if s.TransientFaults|s.UnitHangs != 0 {
		base += fmt.Sprintf(" transient=%d hangs=%d", s.TransientFaults, s.UnitHangs)
	}
	if s.MetaCRCFailures|s.ImageRecoveries|s.ScanRecoveries|s.ScanPages != 0 {
		base += fmt.Sprintf(" metacrc=%d imgrec=%d scanrec=%d scanpages=%d",
			s.MetaCRCFailures, s.ImageRecoveries, s.ScanRecoveries, s.ScanPages)
	}
	return base
}
