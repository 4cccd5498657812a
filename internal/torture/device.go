package torture

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/ncq"
	"repro/internal/storage"
)

// deviceRun generates the device-level schedule: transactions of
// devicePagesPerTx distinct pages written straight into the command
// queue, every deviceAbortEvery-th aborted, the rest committed, with
// power cuts and flash faults landing anywhere. Keys are LPNs, a
// version is the number of the transaction that wrote it, and observe
// compares whole pages byte for byte. Before the schedule an ideal chip
// is aged as the paper's experiments are: every LPN outside the
// schedule's span holds one filler page, checked again at the end.
type deviceRun struct {
	// cut arms a power cut a pseudo-random 1..cut NAND operations ahead,
	// re-arming after every recovery; 0 = a pure fault-rate run.
	cut   int64
	scale float64 // multiplies the default fault-model rates; 0 = ideal flash
	corruption
	txns int // the schedule's length (0 = deviceTxns)
	// fault, when non-nil, replaces the scale-derived fault model (an
	// erase-fail-only model forces spare exhaustion).
	fault *nand.FaultModel
	storm *storm // non-nil turns on the degraded-mode plane
}

const (
	deviceTxns       = 320
	devicePagesPerTx = 6
	deviceAbortEvery = 5
)

// deviceProfile is a small geometry: enough blocks for GC, retirement and
// meta-ring churn, yet thousands of transactions simulate in milliseconds.
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

// fillVersion is the filler page's version: no transaction's.
const fillVersion = math.MaxInt64

// pageContent generates the byte-exact payload for (lpn, version): one
// body per seed, stamped with (seed, lpn, version) in its last 24 bytes.
// Any torn, stale or cross-wired read is caught, not just flipped status
// bits, and two versions differ only at the end of the page, where a
// chip that shares one payload among equal programs must still look.
func pageContent(seed, lpn, version int64, size int) []byte {
	buf := make([]byte, size)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 1
	for i := 0; i+8 <= size-24; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
	stamp := buf[size-24:]
	binary.LittleEndian.PutUint64(stamp[0:], uint64(seed))
	binary.LittleEndian.PutUint64(stamp[8:], uint64(lpn))
	binary.LittleEndian.PutUint64(stamp[16:], uint64(version))
	return buf
}

func (d deviceRun) run(seed int64) (*Report, error) {
	fault := d.fault
	if fault == nil && (d.scale > 0 || d.storm != nil) {
		fault = nand.DefaultFaultModel(seed).Scale(d.scale)
	}
	prof := deviceProfile()
	opts := storage.Options{
		Transactional: true,
		// Half the data blocks exported: retirements eat physical blocks at
		// scaled fault rates, and GC must keep its headroom through them.
		FTL: ftl.Config{
			LogicalPages: int64(prof.Nand.Blocks-ftl.MetaBlocks) * int64(prof.Nand.PagesPerBlock) / 2,
			SpareBlocks:  3,
		},
		XFTL:  core.Config{TableEntries: 128, CommitMapPages: 0},
		Fault: fault,
	}
	if d.storm != nil {
		opts.CmdDeadline, opts.CmdRetries = chaosDeadline, chaosRetries
		fault.TransientProb = chaosTransientProb
		if d.storm.hangEvery > 0 {
			fault.HangProb, fault.HangStall = chaosHangProb, d.storm.hangStall
		}
	}
	dev, err := storage.New(prof, nil, opts)
	if err != nil {
		return nil, err
	}
	var (
		rep = &Report{}
		m   = newModel(false)
		rng = rand.New(rand.NewSource(seed * 1000003))
		buf = make([]byte, dev.PageSize())
		// written holds the bytes of every (lpn, version) the schedule wrote.
		written = make(map[[2]int64][]byte)
		zero    = make([]byte, dev.PageSize())
		// Keep the working set well under capacity so GC has slack even
		// after retirements eat into overprovisioning.
		span = dev.LogicalPages() / 2
	)
	submit := func(r *ncq.Request) error { return dev.Queue().SubmitWait(r) }
	obs := func(lpn int64) (int64, error) {
		if err := submit(&ncq.Request{Op: ncq.OpRead, LPN: lpn, Buf: buf}); err != nil {
			return 0, err
		}
		// The version whose exact bytes the page holds; 0 for a page never
		// written, which reads as zeros.
		v := int64(binary.LittleEndian.Uint64(buf[len(buf)-8:]))
		switch {
		case bytes.Equal(buf, zero):
			return 0, nil
		case bytes.Equal(buf, written[[2]int64{lpn, v}]):
			return v, nil
		}
		return noVersion, nil
	}
	arm := func() {
		if d.cut > 0 {
			dev.PowerCutAfter(1 + rng.Int63n(d.cut))
		}
	}
	// issue submits one command. A power cut goes through the crash step
	// and the judge — the command's transaction in doubt when it was the
	// commit — and comes back as errCrashed: that transaction is over.
	errCrashed := errors.New("crashed and recovered")
	issue := func(r *ncq.Request) error {
		cause := submit(r)
		if cause == nil || errors.Is(cause, storage.ErrWornOut) {
			return cause
		}
		if err := crash(cause, dev, d.corruption); err != nil {
			return err
		}
		rep.Crashes++
		indoubt := uint64(0)
		if r.Op == ncq.OpCommit {
			indoubt = r.TID
			rep.InDoubt++
		}
		if _, err := m.recover(indoubt, obs); err != nil {
			return err
		}
		arm()
		return errCrashed
	}

	// Only ideal flash is aged. The fill would move every fault draw of a
	// faulty run, whose cells are there for retirement and storms, and a
	// storm's quarantine takes half this chip's blocks.
	aged := span
	if fault == nil {
		aged = dev.LogicalPages()
		filler := pageContent(seed, -1, fillVersion, dev.PageSize())
		for lpn := span; lpn < aged; lpn++ {
			written[[2]int64{lpn, fillVersion}] = filler
			if err := submit(&ncq.Request{Op: ncq.OpWrite, LPN: lpn, Data: filler}); err != nil {
				return rep, fmt.Errorf("aging fill, lpn %d: %w", lpn, err)
			}
		}
		if err := submit(&ncq.Request{Op: ncq.OpBarrier}); err != nil {
			return rep, fmt.Errorf("aging fill: %w", err)
		}
	}

	// A run with a corruption target (the meta sweep's, on an aged ideal
	// chip) laps the meta ring once after its second commit: with power
	// cuts off, filler rewrites and barriers program a ring's worth of
	// meta pages and a block more, erases included, and the cut comes at
	// the next NAND op. A map group the commits dirtied is persisted at
	// the first barrier and not again, so its pointed page is the one a
	// lap would take if the ring lost track of it.
	lap := d.slot != ""
	lapRing := func() error {
		dev.PowerCutAfter(0)
		ring := int64(ftl.MetaBlocks * prof.Nand.PagesPerBlock)
		filler := written[[2]int64{span, fillVersion}]
		for i, start := int64(0), dev.NANDOps(); dev.NANDOps()-start-i < ring+int64(prof.Nand.PagesPerBlock); i++ {
			if err := submit(&ncq.Request{Op: ncq.OpWrite, LPN: span, Data: filler}); err != nil {
				return err
			}
			if err := submit(&ncq.Request{Op: ncq.OpBarrier}); err != nil {
				return err
			}
		}
		dev.PowerCutAfter(1)
		return nil
	}

	arm()
schedule:
	for txn := 1; txn <= cmp.Or(d.txns, deviceTxns); txn++ {
		if lap && rep.Committed == 2 {
			lap = false
			if err := lapRing(); err != nil {
				return rep, fmt.Errorf("ring lap: %w", err)
			}
		}
		if s := d.storm; s != nil && s.hangEvery > 0 && txn%s.hangEvery == 0 {
			dev.HangUnit((txn/s.hangEvery)%prof.Nand.Units(), s.hangStall)
		}
		rep.Transactions++
		tid, end := uint64(txn), ncq.OpCommit
		if txn%deviceAbortEvery == 0 {
			end = ncq.OpAbort
		}
		var cmds []*ncq.Request
		for _, p := range rng.Perm(int(span))[:devicePagesPerTx] {
			lpn := int64(p)
			data := pageContent(seed, lpn, int64(txn), dev.PageSize())
			written[[2]int64{lpn, int64(txn)}] = data
			cmds = append(cmds, &ncq.Request{Op: ncq.OpWriteTx, TID: tid, LPN: lpn, Data: data})
		}
		for _, r := range append(cmds, &ncq.Request{Op: end, TID: tid}) {
			if r.Op == ncq.OpWriteTx {
				m.write(tid, r.LPN, int64(txn))
			}
			switch err := issue(r); {
			case err == nil:
			case err == errCrashed:
				continue schedule
			case errors.Is(err, storage.ErrWornOut):
				// End of media life: writes are refused, but every committed
				// page must still read back, which the final verify checks.
				rep.WornOut++
				break schedule
			default:
				return rep, fmt.Errorf("txn %d (%v): %w", txn, r.Op, err)
			}
		}
		if end == ncq.OpAbort {
			m.abort(tid)
			rep.Aborted++
		} else {
			m.commit(tid)
			rep.Committed++
		}
	}
	dev.PowerCutAfter(0)
	if err := m.verify(obs); err != nil {
		return rep, err
	}
	for lpn := span; lpn < aged; lpn++ {
		if v, err := obs(lpn); err != nil || v != fillVersion {
			return rep, fmt.Errorf("filler lpn %d reads version %d (%v), want the filler", lpn, v, err)
		}
	}
	rep.Retries = dev.Queue().Retries()
	rep.Timeouts = dev.Queue().Timeouts()
	rep.QuarantineTrips = dev.FTL().QuarantineTrips()
	rep.Readmits = dev.FTL().QuarantineReadmits()
	return rep, rep.finish(dev)
}

// storm is the degraded-mode plane layered on a device schedule (the
// chaos leg): seeded transient interface faults at the chip, command
// deadlines with bounded retry/backoff at the queue, channel-health
// quarantine at the FTL and, with hangEvery > 0, die stalls — seeded
// ones at the chip plus one unit (round-robin) stalled for hangStall
// before every hangEvery-th transaction. The model still judges every
// recovery; the crash step's "no non-power fault escapes" is the
// containment invariant, and the run terminating at all the liveness
// one: retry loops, quarantine drains and hung units must never
// deadlock the virtual-time pipeline.
type storm struct {
	hangEvery int
	hangStall time.Duration
}

// Retry-plane sizing. A healthy-but-slow command that overruns the
// deadline simply completes late (the queue keeps a late success), but
// deadline, stall and attempt budget must satisfy stall/deadline+1 <<
// attempts so a hung unit always drains within one command's retry
// budget.
const (
	chaosDeadline      = 5 * time.Millisecond
	chaosRetries       = 12
	chaosTransientProb = 0.01
	chaosHangProb      = 0.002
)
