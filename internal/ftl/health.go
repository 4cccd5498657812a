// Channel health tracking and unit quarantine — the FTL half of the
// degraded-mode plane.
//
// The NCQ queue reports every per-unit command outcome here through the
// storage layer's HealthSink adapter. Timeouts and transient faults
// accumulate in a sliding virtual-time window; a unit that trips its
// threshold is quarantined: the write frontier steers new programs away
// from it (allocPage skips its pages, with per-block skip accounting so
// GC victim selection still converges), its live data pages are drained
// to healthy units, and the queue fences commands that still target it
// to depth 1. After a minimum dwell, successful probe observations
// re-admit the unit; a fault during the dwell pushes re-admission out.
// At least one unit always stays in service — graceful degradation, not
// collapse.
package ftl

import (
	"fmt"
	"time"

	"repro/internal/nand"
	"repro/internal/trace"
)

// The channel-health tracker's tuning.
const (
	healthTimeouts      = 3                      // command timeouts inside one window that quarantine a unit
	healthFaults        = 12                     // transient-fault attempts inside one window that do
	healthWindow        = 500 * time.Millisecond // sliding virtual-time window the counts live in; a fault after it expired resets them
	healthMinQuarantine = 250 * time.Millisecond // minimum dwell before a quarantined unit may be probed for re-admission
	healthProbeOKs      = 3                      // clean post-dwell observations that re-admit a quarantined unit
)

// unitHealth is one channel/way unit's error-tracking state.
type unitHealth struct {
	timeouts    int           // timeouts in the current window
	faults      int           // transient-fault attempts in the current window
	windowStart time.Duration // when the current window opened
	quarantined bool
	since       time.Duration // quarantine entry time
	probes      int           // clean post-dwell observations
}

// ResetHealth clears the health tracker: every count, every quarantine.
func (f *FTL) ResetHealth() {
	f.health = make([]unitHealth, f.chip.Config().Units())
	f.quarCount = 0
	f.quarGauge.Store(0)
}

// UnitQuarantined reports whether a channel/way unit is quarantined.
func (f *FTL) UnitQuarantined(unit int) bool {
	if unit < 0 || unit >= len(f.health) {
		return false
	}
	return f.health[unit].quarantined
}

// QuarantinedUnits reports how many units are currently quarantined.
// It reads an atomic mirror of the count, so it is safe to call from
// any goroutine while commands are in flight — the sampling path for
// admission-control and circuit-breaker logic above the device.
func (f *FTL) QuarantinedUnits() int64 { return f.quarGauge.Load() }

// QuarantineTrips reports how many quarantine episodes were opened.
func (f *FTL) QuarantineTrips() int64 { return f.quarTrips }

// QuarantineReadmits reports how many quarantined units were probed
// back into service.
func (f *FTL) QuarantineReadmits() int64 { return f.quarReadmits }

// DegradedTime reports the total virtual time spent with at least one
// unit quarantined: closed episodes plus any still-open ones.
func (f *FTL) DegradedTime() time.Duration {
	d := f.degraded
	now := f.chip.Clock().Now()
	for u := range f.health {
		if f.health[u].quarantined {
			d += now - f.health[u].since
		}
	}
	return d
}

// NoteCommandOK records a clean command completion on a unit. For a
// quarantined unit past its dwell it counts as one successful probe;
// enough probes re-admit the unit.
func (f *FTL) NoteCommandOK(unit int) {
	if unit < 0 || unit >= len(f.health) {
		return
	}
	h := &f.health[unit]
	if !h.quarantined {
		return
	}
	f.maybeProbe(unit)
}

// NoteCommandFault records one failed command attempt on a unit: a
// deadline overrun (timedOut) or a transient interface fault. Counts
// accumulate in the sliding window; tripping a threshold quarantines
// the unit. A fault on a quarantined unit resets its probe progress
// and extends its dwell.
func (f *FTL) NoteCommandFault(unit int, timedOut bool) {
	if unit < 0 || unit >= len(f.health) {
		return
	}
	now := f.chip.Clock().Now()
	h := &f.health[unit]
	if h.quarantined {
		h.probes = 0
		h.since = now // still sick: restart the dwell
		return
	}
	if now-h.windowStart > healthWindow {
		h.timeouts, h.faults = 0, 0
		h.windowStart = now
	}
	if timedOut {
		h.timeouts++
	} else {
		h.faults++
	}
	if h.timeouts >= healthTimeouts || h.faults >= healthFaults {
		_ = f.quarantine(unit)
	}
}

// maybeProbe advances a quarantined unit toward re-admission: each
// clean observation after the minimum dwell counts as one successful
// probe command, and ProbeOKs of them re-admit the unit.
func (f *FTL) maybeProbe(unit int) {
	h := &f.health[unit]
	now := f.chip.Clock().Now()
	if now-h.since < healthMinQuarantine {
		return
	}
	h.probes++
	if h.probes < healthProbeOKs {
		return
	}
	h.quarantined = false
	h.probes = 0
	h.timeouts, h.faults = 0, 0
	h.windowStart = now
	f.quarCount--
	f.quarGauge.Store(int64(f.quarCount))
	f.degraded += now - h.since
	f.quarReadmits++
	if f.tracer != nil {
		f.tracer.Record(trace.Event{
			Layer: trace.LFTL, Kind: trace.KQuarantine,
			Start: h.since, Dur: now - h.since,
			Unit: int32(unit), Aux: 0,
			Sess: f.chip.Session(), Origin: f.chip.Origin(),
		})
	}
}

// quarantine fences one unit and drains its live data pages to healthy
// units. At least one unit always stays in service.
func (f *FTL) quarantine(unit int) error {
	h := &f.health[unit]
	if h.quarantined {
		return nil
	}
	if f.quarCount >= len(f.health)-1 {
		return fmt.Errorf("ftl: refusing to quarantine unit %d: %d of %d units already fenced",
			unit, f.quarCount, len(f.health))
	}
	now := f.chip.Clock().Now()
	h.quarantined = true
	h.since = now
	h.probes = 0
	f.quarCount++
	f.quarGauge.Store(int64(f.quarCount))
	f.quarTrips++
	if f.tracer != nil {
		f.tracer.Record(trace.Event{
			Layer: trace.LFTL, Kind: trace.KQuarantine,
			Start: now, Unit: int32(unit), Aux: 1,
			Sess: f.chip.Session(), Origin: f.chip.Origin(),
		})
	}
	return f.drainUnit(unit)
}

// ForceQuarantine quarantines a unit directly (chaos harnesses and
// degraded-mode benches), bypassing the error thresholds but keeping
// the at-least-one-unit-in-service rule.
func (f *FTL) ForceQuarantine(unit int) error {
	if unit < 0 || unit >= len(f.health) {
		return fmt.Errorf("ftl: no such unit %d", unit)
	}
	return f.quarantine(unit)
}

// resetHealth clears the transient degraded-mode state after a power
// cycle: error counters and quarantine flags restart from a clean
// slate (a real controller's health counters live in SRAM and die with
// the power). Degraded time already accumulated by open episodes is
// closed out first so the gauge does not lose history across the cut.
//
// The frontier skip accounting (f.skipped) deliberately survives: a
// page skipped by quarantine steering is unprogrammable forever — the
// frontier has moved past it and only an erase reclaims it — so the
// ledger is allocator state, exactly like cur/curPage, and clearing it
// would strand those blocks (partial, but never victim-eligible) until
// the device falsely reports itself full.
func (f *FTL) resetHealth() {
	now := f.chip.Clock().Now()
	for u := range f.health {
		if f.health[u].quarantined {
			f.degraded += now - f.health[u].since
		}
		f.health[u] = unitHealth{}
	}
	f.quarCount = 0
	f.quarGauge.Store(0)
}

// drainUnit evacuates every data page living on a quarantined unit,
// copying the live ones to the (steered) write frontier, so reads stop
// depending on the sick die. Meta-ring pages are left alone: the ring's
// sequential-program invariant must hold across all units, and its
// pages are re-homed by the ring's own rotation.
func (f *FTL) drainUnit(unit int) error {
	chipCfg := f.chip.Config()
	dataBlocks := chipCfg.Blocks - MetaBlocks
	units := int64(chipCfg.Units())
	defer f.chip.SetOrigin(f.chip.SetOrigin(trace.OGC))
	defer func() { f.draining = -1 }()
	for b := 0; b < dataBlocks; b++ {
		blk := nand.BlockNum(b)
		if f.bad[blk] || f.metaSet[blk] {
			continue
		}
		f.draining = blk // relocate copies back from its cells
		for pi := 0; pi < chipCfg.PagesPerBlock; pi++ {
			ppn := f.chip.PPNOf(blk, pi)
			if int64(ppn)%units != int64(unit) {
				continue
			}
			if _, err := f.evacuate(ppn); err != nil {
				return err
			}
		}
	}
	return f.settleHeld()
}
