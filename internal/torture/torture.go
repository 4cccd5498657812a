// Package torture is the crash/fault torture harness: it drives
// transactional workloads against devices with fault injection enabled
// (wear-correlated bit errors, program/erase status fails, torn pages
// from mid-operation power cuts) and asserts the two recovery
// invariants of the paper's §5.4 after every injected crash:
//
//  1. every committed transaction is fully durable, and
//  2. every uncommitted transaction is fully discarded.
//
// A transaction whose commit command was interrupted by the power cut
// is in-doubt: the harness accepts either outcome but requires it to be
// atomic (all-old or all-new, never a mix).
//
// Two drivers exist: RunDevice exercises the device command set
// directly against a byte-exact page oracle, and RunSQL (sql.go) runs
// the synth-style SQL workload through the full stack. Sweep fans
// RunDevice out over seeds x cut cadences x fault-rate scales.
package torture

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	xftl "repro"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/ncq"
	"repro/internal/storage"
)

// Options parameterizes one device-level torture run.
type Options struct {
	// Seed drives the workload RNG and the fault model.
	Seed int64
	// CutEvery arms a power cut a pseudo-random 1..CutEvery NAND
	// operations ahead, re-arming after every recovery; 0 disables
	// power cuts (pure fault-rate run).
	CutEvery int64
	// FaultScale multiplies the default fault-model rates; 0 runs on
	// ideal flash (power cuts only).
	FaultScale float64
	// Transactions is how many transactions the workload attempts.
	Transactions int
	// PagesPerTx is how many distinct pages each transaction writes.
	PagesPerTx int
	// AbortEvery aborts every n-th transaction deliberately; 0 = never.
	AbortEvery int
	// CorruptSlot, when non-empty, names a persisted metadata structure
	// ("map" for the mapping-table pages, or a meta slot such as "bbt")
	// that is corrupted after every power cut, before recovery runs. The
	// harness then requires recovery to take the full-device OOB scan
	// path and (for in-place corruption) to detect every damaged page by
	// CRC — silent acceptance is an invariant violation.
	CorruptSlot string
	// CorruptErase erases the targeted pages outright instead of
	// flipping bytes in place (a torn/lost write rather than bit rot).
	CorruptErase bool
	// Fault, when non-nil, overrides the FaultScale-derived fault model
	// entirely (e.g. an erase-fail-only model to force spare
	// exhaustion).
	Fault *nand.FaultModel

	// Chaos (degraded-mode) knobs. CmdDeadline/CmdRetries
	// configure the queue's timeout/retry plane (see storage.Options);
	// TransientProb and HangProb inject seeded interface faults and die
	// stalls at the chip; HangStall sizes both the chip's stalls and the
	// harness's deterministic ones.
	CmdDeadline   time.Duration
	CmdRetries    int
	TransientProb float64
	HangProb      float64
	HangStall     time.Duration
	// HangEvery, when > 0, makes the harness stall one unit (rotating
	// round-robin) for HangStall before every HangEvery-th transaction —
	// a deterministic error storm on top of the probabilistic one.
	HangEvery int
}

// DefaultOptions returns a run that exercises cuts, retirements and ECC
// on a small device in well under a second.
func DefaultOptions(seed int64) Options {
	return Options{
		Seed:         seed,
		CutEvery:     160,
		FaultScale:   60,
		Transactions: 320,
		PagesPerTx:   6,
		AbortEvery:   5,
	}
}

// Report aggregates what one run (or a whole sweep) observed.
type Report struct {
	Transactions int
	Committed    int
	Aborted      int
	InDoubt      int // commit interrupted; outcome verified atomic
	Revoked      int // rollback-journal commits undone by the DELETE-mode durability window
	Crashes      int // injected power cuts that tripped
	Runs         int // sweep combinations executed
	WornOut      int // runs stopped early because the spare reserve ran out

	// Seeds records every workload/fault seed that contributed to this
	// report, so a failing sweep line is reproducible from its summary.
	Seeds []int64

	// Degraded-mode counters (chaos runs; zero elsewhere).
	Retries         int64 // queue command attempts reissued
	Timeouts        int64 // command attempts that overran their deadline
	QuarantineTrips int64 // quarantine episodes opened
	Readmits        int64 // quarantined units probed back into service

	Flash metrics.FlashSnapshot
}

func (r *Report) String() string {
	s := fmt.Sprintf("txns=%d committed=%d aborted=%d indoubt=%d revoked=%d crashes=%d runs=%d",
		r.Transactions, r.Committed, r.Aborted, r.InDoubt, r.Revoked, r.Crashes, r.Runs)
	if r.WornOut > 0 {
		s += fmt.Sprintf(" wornout=%d", r.WornOut)
	}
	if len(r.Seeds) > 0 {
		s += fmt.Sprintf(" seeds=%v", r.Seeds)
	}
	if r.Retries+r.Timeouts+r.QuarantineTrips > 0 {
		s += fmt.Sprintf(" retries=%d timeouts=%d quarantines=%d readmits=%d",
			r.Retries, r.Timeouts, r.QuarantineTrips, r.Readmits)
	}
	if r.Flash.ImageRecoveries+r.Flash.ScanRecoveries > 0 {
		s += fmt.Sprintf(" recovery=image:%d/scan:%d", r.Flash.ImageRecoveries, r.Flash.ScanRecoveries)
	}
	return s + " [" + r.Flash.String() + "]"
}

// noteSeed records a contributing seed, deduplicated.
func (r *Report) noteSeed(seed int64) {
	if !slices.Contains(r.Seeds, seed) {
		r.Seeds = append(r.Seeds, seed)
	}
}

// add folds one run's counts into an aggregate report.
func (r *Report) Add(o *Report) {
	r.Transactions += o.Transactions
	r.Committed += o.Committed
	r.Aborted += o.Aborted
	r.InDoubt += o.InDoubt
	r.Revoked += o.Revoked
	r.Crashes += o.Crashes
	r.Runs += o.Runs
	r.WornOut += o.WornOut
	for _, s := range o.Seeds {
		r.noteSeed(s)
	}
	r.Retries += o.Retries
	r.Timeouts += o.Timeouts
	r.QuarantineTrips += o.QuarantineTrips
	r.Readmits += o.Readmits
	r.Flash.PageWrites += o.Flash.PageWrites
	r.Flash.PageReads += o.Flash.PageReads
	r.Flash.GCRuns += o.Flash.GCRuns
	r.Flash.BlockErases += o.Flash.BlockErases
	r.Flash.CorrectedBits += o.Flash.CorrectedBits
	r.Flash.ReadRetries += o.Flash.ReadRetries
	r.Flash.UncorrectableReads += o.Flash.UncorrectableReads
	r.Flash.ProgramFails += o.Flash.ProgramFails
	r.Flash.EraseFails += o.Flash.EraseFails
	r.Flash.RetiredBlocks += o.Flash.RetiredBlocks
	r.Flash.MetaCRCFailures += o.Flash.MetaCRCFailures
	r.Flash.ImageRecoveries += o.Flash.ImageRecoveries
	r.Flash.ScanRecoveries += o.Flash.ScanRecoveries
	r.Flash.ScanPages += o.Flash.ScanPages
	r.Flash.TransientFaults += o.Flash.TransientFaults
	r.Flash.UnitHangs += o.Flash.UnitHangs
}

// deviceProfile is the small geometry the device-level torture runs on:
// enough blocks for GC, retirement and meta-ring churn, small enough
// that thousands of transactions simulate in milliseconds.
func deviceProfile() storage.Profile {
	return storage.Profile{
		Name: "torture-small",
		Nand: nand.Config{
			Blocks:        48,
			PagesPerBlock: 32,
			PageSize:      1024,
			ReadLatency:   50 * time.Microsecond,
			ProgLatency:   300 * time.Microsecond,
			EraseLatency:  1500 * time.Microsecond,
			Channels:      2,
			Ways:          1,
		},
		CmdOverhead:     20 * time.Microsecond,
		TransferPerPage: 5 * time.Microsecond,
		BarrierOverhead: 100 * time.Microsecond,
		Channels:        2,
	}
}

// pageContent generates the byte-exact payload for (lpn, version): the
// oracle compares full pages, so any torn, stale or cross-wired read is
// caught, not just flipped status bits.
func pageContent(seed, lpn int64, version, size int) []byte {
	buf := make([]byte, size)
	binary.LittleEndian.PutUint64(buf[0:], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(lpn))
	binary.LittleEndian.PutUint64(buf[16:], uint64(version))
	// Fill the body from a cheap xorshift so every byte is versioned.
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(lpn)<<32 + uint64(version)
	for i := 24; i+8 <= size; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
	return buf
}

// runState carries one run's mutable harness state.
type runState struct {
	o      Options
	dev    *storage.Device
	rng    *rand.Rand
	oracle map[int64][]byte // lpn -> committed content
	rep    *Report
	zero   []byte
}

// RunDevice executes one device-level torture run and returns its
// report; any invariant violation is an error.
func RunDevice(o Options) (*Report, error) {
	s, err := newRunState(o)
	if err != nil {
		return nil, err
	}
	return s.rep, s.run()
}

func newRunState(o Options) (*runState, error) {
	fault := o.Fault
	if fault == nil && (o.FaultScale > 0 || o.TransientProb > 0 || o.HangProb > 0) {
		fault = nand.DefaultFaultModel(o.Seed).Scale(o.FaultScale)
		fault.TransientProb = o.TransientProb
		fault.HangProb = o.HangProb
		if o.HangStall > 0 {
			fault.HangStall = o.HangStall
		}
	}
	prof := deviceProfile()
	// Half the data blocks exported: retirements eat physical blocks at
	// scaled fault rates, and GC must keep its headroom through them.
	ftlCfg := ftl.Config{
		LogicalPages: int64(prof.Nand.Blocks-4) * int64(prof.Nand.PagesPerBlock) / 2,
		MetaBlocks:   4,
		GCLowWater:   3,
		SpareBlocks:  3,
	}
	dev, err := storage.New(prof, nil, storage.Options{
		Transactional: true,
		FTL:           ftlCfg,
		XFTL:          core.Config{TableEntries: 128, CommitMapPages: 0},
		Fault:         fault,
		CmdDeadline:   o.CmdDeadline,
		CmdRetries:    o.CmdRetries,
	})
	if err != nil {
		return nil, err
	}
	s := &runState{
		o:      o,
		dev:    dev,
		rng:    rand.New(rand.NewSource(o.Seed * 1000003)),
		oracle: make(map[int64][]byte),
		rep:    &Report{Runs: 1},
		zero:   make([]byte, dev.PageSize()),
	}
	s.rep.noteSeed(o.Seed)
	return s, nil
}

func (s *runState) run() error {
	o := s.o
	dev := s.dev
	// Keep the working set well under capacity so GC has slack even
	// after retirements eat into overprovisioning.
	span := dev.LogicalPages() / 2
	units := dev.Profile().Nand.Units()

	s.arm()
workload:
	for txn := 1; txn <= o.Transactions; txn++ {
		if o.HangEvery > 0 && txn%o.HangEvery == 0 {
			stall := o.HangStall
			if stall <= 0 {
				stall = 10 * time.Millisecond
			}
			dev.HangUnit((txn/o.HangEvery)%units, stall)
		}
		s.rep.Transactions++
		tid := uint64(txn)
		lpns := s.pickDistinct(span, o.PagesPerTx)
		writes := make(map[int64][]byte, len(lpns))
		crashed := false
		for _, lpn := range lpns {
			data := pageContent(o.Seed, lpn, txn, dev.PageSize())
			if err := s.dev.Queue().SubmitWait(&ncq.Request{Op: ncq.OpWriteTx, TID: tid, LPN: lpn, Data: data}); err != nil {
				if errors.Is(err, storage.ErrWornOut) {
					// End of media life: writes are refused but every
					// committed page must still read back (checked below).
					s.rep.WornOut++
					break workload
				}
				// Uncommitted: every page of this transaction must
				// read back its pre-transaction content.
				if err := s.crashRecoverVerify(err, nil, writes); err != nil {
					return fmt.Errorf("txn %d (write): %w", txn, err)
				}
				crashed = true
				break
			}
			writes[lpn] = data
		}
		if crashed {
			continue
		}
		if o.AbortEvery > 0 && txn%o.AbortEvery == 0 {
			if err := s.dev.Queue().SubmitWait(&ncq.Request{Op: ncq.OpAbort, TID: tid}); err != nil {
				if errors.Is(err, storage.ErrWornOut) {
					s.rep.WornOut++
					break workload
				}
				if err := s.crashRecoverVerify(err, nil, writes); err != nil {
					return fmt.Errorf("txn %d (abort): %w", txn, err)
				}
				continue
			}
			s.rep.Aborted++
			continue
		}
		if err := s.dev.Queue().SubmitWait(&ncq.Request{Op: ncq.OpCommit, TID: tid}); err != nil {
			if errors.Is(err, storage.ErrWornOut) {
				s.rep.WornOut++
				break workload
			}
			// In-doubt: the durable commit point may or may not have
			// been reached; the outcome must be atomic.
			if err := s.crashRecoverVerify(err, writes, nil); err != nil {
				return fmt.Errorf("txn %d (commit): %w", txn, err)
			}
			continue
		}
		for lpn, d := range writes {
			s.oracle[lpn] = d
		}
		s.rep.Committed++
	}
	// Final verification with the cut disarmed.
	s.dev.PowerCutAfter(0)
	if err := s.verifyOracle(); err != nil {
		return fmt.Errorf("final verify: %w", err)
	}
	s.rep.Flash = dev.FlashStats().Snapshot()
	s.rep.Retries = dev.Queue().Retries()
	s.rep.Timeouts = dev.Queue().Timeouts()
	s.rep.QuarantineTrips = dev.FTL().QuarantineTrips()
	s.rep.Readmits = dev.FTL().QuarantineReadmits()
	if s.rep.Flash.UncorrectableReads > 0 {
		return fmt.Errorf("uncorrectable-error escapes: %d reads exceeded the ECC threshold", s.rep.Flash.UncorrectableReads)
	}
	return nil
}

// arm schedules the next power cut a pseudo-random distance ahead.
func (s *runState) arm() {
	if s.o.CutEvery > 0 {
		s.dev.PowerCutAfter(1 + s.rng.Int63n(s.o.CutEvery))
	}
}

// pickDistinct draws n distinct lpns from [0, span).
func (s *runState) pickDistinct(span int64, n int) []int64 {
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		lpn := s.rng.Int63n(span)
		if !seen[lpn] {
			seen[lpn] = true
			out = append(out, lpn)
		}
	}
	return out
}

// expectedOld is the committed content of lpn per the oracle (zeros for
// a never-written page, as the device returns for unmapped reads).
func (s *runState) expectedOld(lpn int64) []byte {
	if d, ok := s.oracle[lpn]; ok {
		return d
	}
	return s.zero
}

// crashRecoverVerify handles a command error during the workload. Only
// power-cut errors are survivable: the device is restarted and the
// recovery invariants checked. indoubt holds the writes of a commit
// that was interrupted (either outcome, atomically); mustBeOld holds
// writes of a transaction that never reached commit (old content
// required).
func (s *runState) crashRecoverVerify(cause error, indoubt, mustBeOld map[int64][]byte) error {
	if !errors.Is(cause, nand.ErrPowerLost) {
		return fmt.Errorf("non-power fault escaped firmware: %w", cause)
	}
	s.rep.Crashes++
	// Metadata-corruption sweep: damage every persisted copy of the
	// targeted structure while the power is still off, so recovery has
	// nothing to mount but the per-page OOB records.
	damaged := 0
	if s.o.CorruptSlot != "" {
		n, err := s.dev.CorruptMeta(s.o.CorruptSlot, s.o.CorruptErase)
		if err != nil && !errors.Is(err, ftl.ErrBadMetaSlot) {
			return fmt.Errorf("corrupt meta %q: %w", s.o.CorruptSlot, err)
		}
		damaged = n // ErrBadMetaSlot: slot not persisted yet, nothing to damage
	}
	if err := s.dev.Restart(); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	if damaged > 0 {
		ri := s.dev.LastRecovery()
		if ri.Mode != ftl.RecoveryScan {
			return fmt.Errorf("corrupted %d pages of %q yet recovery took the %v path (reason %q)",
				damaged, s.o.CorruptSlot, ri.Mode, ri.Reason)
		}
		if !s.o.CorruptErase && ri.CRCFailures == 0 {
			return fmt.Errorf("silent acceptance: %d pages of %q corrupted in place, zero CRC rejections", damaged, s.o.CorruptSlot)
		}
	}
	buf := make([]byte, s.dev.PageSize())
	if indoubt != nil {
		newN, oldN := 0, 0
		for _, lpn := range sortedKeys(indoubt) {
			if err := s.dev.Queue().SubmitWait(&ncq.Request{Op: ncq.OpRead, LPN: lpn, Buf: buf}); err != nil {
				return fmt.Errorf("in-doubt read lpn %d: %w", lpn, err)
			}
			switch {
			case bytes.Equal(buf, indoubt[lpn]):
				newN++
			case bytes.Equal(buf, s.expectedOld(lpn)):
				oldN++
			default:
				return fmt.Errorf("in-doubt lpn %d: content is neither old nor new version", lpn)
			}
		}
		if newN > 0 && oldN > 0 {
			return fmt.Errorf("atomicity violation: in-doubt commit recovered %d new and %d old pages", newN, oldN)
		}
		if newN > 0 {
			for lpn, d := range indoubt {
				s.oracle[lpn] = d
			}
		}
		s.rep.InDoubt++
	}
	for _, lpn := range sortedKeys(mustBeOld) {
		if err := s.dev.Queue().SubmitWait(&ncq.Request{Op: ncq.OpRead, LPN: lpn, Buf: buf}); err != nil {
			return fmt.Errorf("uncommitted read lpn %d: %w", lpn, err)
		}
		if !bytes.Equal(buf, s.expectedOld(lpn)) {
			return fmt.Errorf("durability violation: uncommitted write to lpn %d survived recovery", lpn)
		}
	}
	if err := s.verifyOracle(); err != nil {
		return err
	}
	s.arm()
	return nil
}

// verifyOracle checks every committed page byte-for-byte.
func (s *runState) verifyOracle() error {
	buf := make([]byte, s.dev.PageSize())
	for _, lpn := range sortedKeys(s.oracle) {
		if err := s.dev.Queue().SubmitWait(&ncq.Request{Op: ncq.OpRead, LPN: lpn, Buf: buf}); err != nil {
			return fmt.Errorf("verify read lpn %d: %w", lpn, err)
		}
		if !bytes.Equal(buf, s.oracle[lpn]) {
			return fmt.Errorf("durability violation: committed lpn %d lost its content", lpn)
		}
	}
	return nil
}

func sortedKeys(m map[int64][]byte) []int64 {
	ks := make([]int64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// SweepOptions spans the (seed, cut cadence, fault scale) grid.
type SweepOptions struct {
	Seeds      []int64
	CutEvery   []int64
	FaultScale []float64
	// Per-combination workload size (zero: DefaultOptions values).
	Transactions int
	PagesPerTx   int
	// Progress, when non-nil, receives one line per combination.
	Progress func(format string, args ...any)
}

// DefaultSweep returns the acceptance grid: 6 seeds x 3 cut cadences x
// 3 fault scales = 54 combinations, including cut-only and fault-only
// columns.
func DefaultSweep() SweepOptions {
	return SweepOptions{
		Seeds:      []int64{1, 2, 3, 4, 5, 6},
		CutEvery:   []int64{0, 90, 230},
		FaultScale: []float64{0, 60, 150},
	}
}

// Sweep runs RunDevice across the whole grid, failing on the first
// invariant violation.
func Sweep(o SweepOptions) (*Report, error) {
	agg := &Report{}
	for _, seed := range o.Seeds {
		for _, cut := range o.CutEvery {
			for _, scale := range o.FaultScale {
				ro := DefaultOptions(seed)
				ro.CutEvery = cut
				ro.FaultScale = scale
				if o.Transactions > 0 {
					ro.Transactions = o.Transactions
				}
				if o.PagesPerTx > 0 {
					ro.PagesPerTx = o.PagesPerTx
				}
				rep, err := RunDevice(ro)
				if rep != nil {
					agg.Add(rep)
				}
				if err != nil {
					return agg, fmt.Errorf("seed=%d cut=%d scale=%g: %w", seed, cut, scale, err)
				}
				if o.Progress != nil {
					o.Progress("torture: seed=%d cut=%d scale=%g %s", seed, cut, scale, rep)
				}
			}
		}
	}
	return agg, nil
}

// MetaSweepOptions spans the metadata-corruption grid: after every
// injected power cut, every persisted copy of one metadata structure is
// corrupted or erased, and recovery must still restore all committed
// transactions from the per-page OOB records alone.
type MetaSweepOptions struct {
	Seeds []int64
	// Slots are the structures to destroy per combination ("map" = the
	// mapping-table pages, "bbt" = the bad-block table chain).
	Slots []string
	// Erase selects damage styles: false = in-place corruption (must be
	// caught by CRC), true = outright erasure (torn/lost writes).
	Erase []bool
	// SQL additionally runs the full SQLite stack in all three journal
	// modes per combination.
	SQL bool
	// Per-combination workload size (zero: DefaultOptions values).
	Transactions int
	PagesPerTx   int
	// Progress, when non-nil, receives one line per combination.
	Progress func(format string, args ...any)
}

// DefaultMetaSweep returns the acceptance grid for self-healing
// recovery: 3 seeds x {map, bbt} x {corrupt, erase}, each combination
// run against the raw device command set and (SQL=true) through SQLite
// in all three journal modes.
func DefaultMetaSweep() MetaSweepOptions {
	return MetaSweepOptions{
		Seeds: []int64{1, 2, 3},
		Slots: []string{"map", "bbt"},
		Erase: []bool{false, true},
		SQL:   true,
	}
}

// MetaSweep runs the metadata-corruption grid, failing on the first
// invariant violation (committed-data loss, silent CRC acceptance, or
// recovery not taking the scan path after injected damage).
func MetaSweep(o MetaSweepOptions) (*Report, error) {
	agg := &Report{}
	for _, seed := range o.Seeds {
		for _, slot := range o.Slots {
			for _, erase := range o.Erase {
				ro := DefaultOptions(seed)
				// Ideal flash: isolate metadata destruction from media
				// faults so every scan fallback is attributable.
				ro.FaultScale = 0
				ro.CorruptSlot, ro.CorruptErase = slot, erase
				if o.Transactions > 0 {
					ro.Transactions = o.Transactions
				}
				if o.PagesPerTx > 0 {
					ro.PagesPerTx = o.PagesPerTx
				}
				rep, err := RunDevice(ro)
				if rep != nil {
					agg.Add(rep)
				}
				if err != nil {
					return agg, fmt.Errorf("meta seed=%d slot=%s erase=%v: %w", seed, slot, erase, err)
				}
				if o.Progress != nil {
					o.Progress("meta-torture: seed=%d slot=%s erase=%v %s", seed, slot, erase, rep)
				}
				if !o.SQL {
					continue
				}
				for _, mode := range []xftl.Mode{xftl.ModeRollback, xftl.ModeWAL, xftl.ModeXFTL} {
					so := DefaultSQLOptions(mode, seed)
					so.FaultScale = 0
					so.CorruptSlot, so.CorruptErase = slot, erase
					rep, err := RunSQL(so)
					if rep != nil {
						agg.Add(rep)
					}
					if err != nil {
						return agg, fmt.Errorf("meta-sql mode=%v seed=%d slot=%s erase=%v: %w", mode, seed, slot, erase, err)
					}
					if o.Progress != nil {
						o.Progress("meta-torture: mode=%v seed=%d slot=%s erase=%v %s", mode, seed, slot, erase, rep)
					}
				}
			}
		}
	}
	return agg, nil
}
