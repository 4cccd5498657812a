// Fault injection for the NAND model.
//
// Real MLC NAND is not the ideal array the rest of the simulator would
// like it to be: reads come back with bit errors that grow with
// program/erase wear (the ECC engine corrects up to a threshold and
// charges read-retry rounds near it), page programs fail with a status
// error that obliges the firmware to rewrite the data elsewhere and
// retire the block, erases fail the same way, and a power cut in the
// middle of a program leaves a torn page whose ECC never checks out.
// High-precision NAND simulators (Copycat, arXiv:1612.04277) and
// full-SSD models (Amber, arXiv:1811.01544) model exactly these
// wear-correlated mechanisms; this file is the laptop-scale version.
//
// The model is deterministic: all sampling is driven by a private PRNG
// seeded from FaultModel.Seed, so a (seed, workload) pair replays the
// same faults every run.
package nand

import (
	"errors"
	"math"
	"math/rand"
	"time"
)

// Fault-injection errors. ErrUncorrectable and the fail sentinels are
// what firmware sees; ErrPowerLost is raised by the op-indexed power-cut
// scheduler when the cut lands mid-operation.
var (
	ErrUncorrectable = errors.New("nand: uncorrectable ECC error")
	ErrProgramFail   = errors.New("nand: page program failed (status fail)")
	ErrEraseFail     = errors.New("nand: block erase failed (status fail)")
	ErrPowerLost     = errors.New("nand: power lost")
	// ErrTransient is a retryable interface fault: the command timed out
	// or came back garbled on the channel, but the cells were never
	// touched — reissuing the same command (a bounded number of times)
	// succeeds. Programs do NOT consume the page and erases do NOT wreck
	// the block, unlike their status-fail counterparts.
	ErrTransient = errors.New("nand: transient interface fault (retry)")
)

// FaultModel parameterizes wear-correlated fault injection. The zero
// value (or a nil pointer on the chip) disables every mechanism.
type FaultModel struct {
	// Seed drives the private PRNG; identical seeds replay identical
	// fault sequences for the same operation stream.
	Seed int64

	// ReadBER is the raw bit error rate per bit read at zero wear. The
	// expected bit-error count of a page read is
	// pageBits * ReadBER * (1 + WearFactor * eraseCount).
	ReadBER float64
	// WearFactor is the fractional increase in every fault rate per
	// block erase cycle (read BER, program-fail and erase-fail
	// probabilities all scale with it).
	WearFactor float64

	// ECCBits is the per-page correction capability of the ECC engine.
	// A read whose sampled bit-error count exceeds it returns
	// ErrUncorrectable.
	ECCBits int
	// RetryBits is the corrected-bit level at which the controller
	// charges a read-retry round (re-read with shifted reference
	// voltages) before the correction succeeds.
	RetryBits int
	// ReadRetryLatency is the extra latency charged per retry round.
	ReadRetryLatency time.Duration
	// MaxReadRetries is how many retry rounds are charged before a read
	// is declared uncorrectable.
	MaxReadRetries int

	// ProgramFailProb is the zero-wear probability that a page program
	// reports status fail (the page is consumed; firmware must rewrite
	// elsewhere and retire the block).
	ProgramFailProb float64
	// EraseFailProb is the zero-wear probability that a block erase
	// reports status fail (the block must be retired).
	EraseFailProb float64

	// TransientProb is the zero-wear probability that an operation
	// (read, program or erase) fails with ErrTransient. A sampled hit
	// opens a burst: the same physical target keeps failing for a
	// seeded number of consecutive attempts in [1, MaxTransientFails],
	// then succeeds — so any retry loop with more than
	// MaxTransientFails attempts is guaranteed to clear the fault.
	// Transient injection is active only while a Charger is attached
	// (a device, whose queue and firmware retry the fault); the
	// recovery scan's quiet reads are never sampled.
	TransientProb float64
	// MaxTransientFails bounds the consecutive failures of one
	// transient burst. Zero means 1 (a single failure per burst).
	MaxTransientFails int

	// HangProb is the per-operation probability that the target's
	// channel/way unit hangs — its busy-until time jumps by HangStall
	// before the operation proceeds, modeling a stuck die that answers
	// late. The operation itself then succeeds; the damage is purely
	// temporal, and surfaces as command timeouts in the queue above.
	// Like TransientProb, sampled only while a Charger is attached.
	HangProb float64
	// HangStall is the busy-time added to the unit by a sampled hang.
	HangStall time.Duration
}

// DefaultFaultModel returns MLC-class rates: a raw BER that the 40-bit
// ECC corrects with enormous margin at low wear, and program/erase fail
// probabilities around the datasheet's "a few per million operations".
// At these defaults no uncorrectable error ever escapes; the torture
// harness scales the rates up to exercise the degraded paths.
func DefaultFaultModel(seed int64) *FaultModel {
	return &FaultModel{
		Seed:             seed,
		ReadBER:          5e-7,
		WearFactor:       0.002,
		ECCBits:          40,
		RetryBits:        30,
		ReadRetryLatency: 120 * time.Microsecond,
		MaxReadRetries:   3,
		ProgramFailProb:  2e-5,
		EraseFailProb:    5e-6,
		// Transient faults and hangs default off (probability zero) so
		// the sampling stream — and therefore every seeded fault
		// sequence recorded before these mechanisms existed — is
		// unchanged unless a caller opts in. The shape parameters get
		// realistic values so opting in only means raising the probs.
		MaxTransientFails: 3,
		HangStall:         25 * time.Millisecond,
	}
}

// Scale returns a copy with every probability multiplied by k (ECC
// threshold, latencies and burst/stall shapes unchanged). It is the
// fault-rate knob of the torture sweeps.
func (m *FaultModel) Scale(k float64) *FaultModel {
	c := *m
	c.ReadBER *= k
	c.ProgramFailProb *= k
	c.EraseFailProb *= k
	c.TransientProb *= k
	c.HangProb *= k
	return &c
}

// wearMult is the common wear multiplier applied to every rate.
func (m *FaultModel) wearMult(eraseCount int64) float64 {
	return 1 + m.WearFactor*float64(eraseCount)
}

// poisson samples a Poisson variate with mean lambda (Knuth's method
// for small means, a clamped normal approximation for large ones).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// SetFaultModel installs (or, with nil, removes) a fault model on the
// chip. The model's PRNG is reset from its seed, so installing the same
// model twice replays the same sequence.
func (c *Chip) SetFaultModel(m *FaultModel) {
	c.fault = m
	c.transientLeft = nil
	if m != nil {
		c.frng = rand.New(rand.NewSource(m.Seed))
	} else {
		c.frng = nil
	}
}

// FaultModel returns the installed fault model, or nil.
func (c *Chip) FaultModel() *FaultModel { return c.fault }

// ArmPowerCut schedules a power cut during the n-th NAND operation
// (read, program or erase) counted from now; n == 1 interrupts the very
// next operation. The interrupted operation returns ErrPowerLost —
// leaving a torn page if it was a program, a half-erased block if it
// was an erase — and every subsequent operation fails with ErrPowerLost
// until Restore is called. n <= 0 disarms.
func (c *Chip) ArmPowerCut(n int64) {
	if n <= 0 {
		c.cutAt = 0
		return
	}
	c.cutAt = c.opCount.Load() + n
}

// PowerOff drops power at an operation boundary (the legacy power-cut
// behaviour); in-flight state is not torn.
func (c *Chip) PowerOff() { c.powerLost = true }

// Restore powers the chip back on and disarms any pending cut. The
// firmware recovery above is responsible for making sense of whatever
// the cells hold.
func (c *Chip) Restore() {
	c.powerLost = false
	c.cutAt = 0
}

// OpCount reports how many NAND operations (reads, programs, erases)
// the chip has executed. It is the time base for ArmPowerCut.
func (c *Chip) OpCount() int64 { return c.opCount.Load() }

// opTick advances the operation counter and reports whether this very
// operation is interrupted by the armed power cut. When power is
// already lost every operation fails immediately.
func (c *Chip) opTick() (interrupted bool, err error) {
	if c.powerLost {
		return false, ErrPowerLost
	}
	n := c.opCount.Add(1)
	if c.cutAt > 0 && n >= c.cutAt {
		c.powerLost = true
		c.cutAt = 0
		return true, nil
	}
	return false, nil
}

// readFaults applies the fault model to one page read that is about to
// succeed. It returns nil when the (possibly corrected) data is valid,
// or ErrUncorrectable when the error count exceeds the ECC capability.
// Latency for retry rounds is charged here; the caller has already
// charged the base read latency. quiet reads (recovery scans) do not
// count expected failures in the UncorrectableReads/ReadRetries escape
// counters.
func (c *Chip) readFaults(p PPN, b *block, pi int, quiet bool) error {
	if b.torn[pi] {
		// A torn page never passes ECC no matter how many retries.
		if c.fault != nil {
			c.chargeOp(p, time.Duration(c.fault.MaxReadRetries)*c.fault.ReadRetryLatency)
		}
		if c.stats != nil && !quiet {
			c.stats.UncorrectableReads.Add(1)
		}
		return ErrUncorrectable
	}
	if c.fault == nil || c.fault.ReadBER <= 0 {
		return nil
	}
	m := c.fault
	bits := float64(c.cfg.PageSize) * 8
	lambda := bits * m.ReadBER * m.wearMult(b.eraseCount)
	n := poisson(c.frng, lambda)
	if n == 0 {
		return nil
	}
	if m.ECCBits > 0 && n > m.ECCBits {
		c.chargeOp(p, time.Duration(m.MaxReadRetries)*m.ReadRetryLatency)
		if c.stats != nil && !quiet {
			c.stats.ReadRetries.Add(int64(m.MaxReadRetries))
			c.stats.UncorrectableReads.Add(1)
		}
		return ErrUncorrectable
	}
	if c.stats != nil {
		c.stats.CorrectedBits.Add(int64(n))
	}
	if m.RetryBits > 0 && n >= m.RetryBits {
		c.chargeOp(p, m.ReadRetryLatency)
		if c.stats != nil {
			c.stats.ReadRetries.Add(1)
		}
	}
	return nil
}

// programFails samples whether a page program reports status fail.
func (c *Chip) programFails(b *block) bool {
	if c.fault == nil || c.fault.ProgramFailProb <= 0 {
		return false
	}
	return c.frng.Float64() < c.fault.ProgramFailProb*c.fault.wearMult(b.eraseCount)
}

// eraseFails samples whether a block erase reports status fail.
func (c *Chip) eraseFails(b *block) bool {
	if c.fault == nil || c.fault.EraseFailProb <= 0 {
		return false
	}
	return c.frng.Float64() < c.fault.EraseFailProb*c.fault.wearMult(b.eraseCount)
}

// transientFails samples whether the operation addressed by key (a ppn
// for page ops, -(block+1) for erases) suffers a transient interface
// fault on this attempt. An open burst fails deterministically until
// its seeded failure budget is spent; a fresh hit opens a burst of
// 1..MaxTransientFails consecutive failures. The guards keep the frng
// stream untouched when the mechanism is disabled, so pre-existing
// seeded fault sequences replay unchanged.
func (c *Chip) transientFails(key int64, b *block) bool {
	if c.fault == nil || c.fault.TransientProb <= 0 || c.charger == nil {
		return false
	}
	if left, ok := c.transientLeft[key]; ok {
		if left <= 1 {
			delete(c.transientLeft, key)
		} else {
			c.transientLeft[key] = left - 1
		}
		if c.stats != nil {
			c.stats.TransientFaults.Add(1)
		}
		return true
	}
	if c.frng.Float64() >= c.fault.TransientProb*c.fault.wearMult(b.eraseCount) {
		return false
	}
	maxf := c.fault.MaxTransientFails
	if maxf < 1 {
		maxf = 1
	}
	if extra := c.frng.Intn(maxf); extra > 0 {
		if c.transientLeft == nil {
			c.transientLeft = make(map[int64]int)
		}
		c.transientLeft[key] = extra
	}
	if c.stats != nil {
		c.stats.TransientFaults.Add(1)
	}
	return true
}

// unitHangs samples whether this operation's unit hangs, and if so
// stalls the unit for HangStall before the operation proceeds. The
// caller's normal latency charge then queues behind the stall.
func (c *Chip) unitHangs(p PPN, b *block) {
	if c.fault == nil || c.fault.HangProb <= 0 || c.charger == nil {
		return
	}
	if c.frng.Float64() >= c.fault.HangProb*c.fault.wearMult(b.eraseCount) {
		return
	}
	c.chargeOp(p, c.fault.HangStall)
	if c.stats != nil {
		c.stats.UnitHangs.Add(1)
	}
}
