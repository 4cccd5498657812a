// Package ncq implements an NCQ-style asynchronous command queue and a
// multi-channel NAND scheduler for the simulated flash device.
//
// The paper's Barefoot controller hides an 8-channel flash array behind
// a queue-depth-1 SATA link: one host command at a time, but firmware
// free to stripe its own bulk work (mapping flushes, GC copy-back)
// across channels. The channel/way units are explicit resources with
// busy-until timestamps in simclock virtual time, and a command queue
// (default depth 32) lets multiple host commands be in flight so their
// NAND work overlaps on different units — host reads/writes, GC
// copy-backs, meta-ring flushes and X-FTL commit-time work all contend
// for the same units. Every NAND charge lands inside a command window:
// a queued command's, or one the queue opens for control-plane work
// (Queue.Exclusive, and a fault report that drains a unit).
//
// Timing decomposes per command as
//
//	controller/bus time  — command overhead + data transfer +
//	                       barrier bookkeeping; one command at a time
//	                       (the SATA link and firmware CPU serialize)
//	channel/way time     — page reads/programs occupy the page's unit
//	                       (ppn mod units) for the full cell latency;
//	                       block erases occupy every unit (superblock)
//
// A command's completion time is the max over the segments it touched.
// Because physical pages stripe round-robin across units, an evenly
// striped internal stream of total cell cost T finishes in T/units,
// while single-page host commands still pay full latency at queue
// depth 1.
package ncq

import (
	"time"

	"repro/internal/simclock"
)

// Scheduler tracks per-unit and controller busy-until timestamps and
// accumulates the cost of the command currently being charged. It
// implements nand.Charger. Callers (the Queue) serialize access; a
// charge arriving with no open command is a bug and panics.
type Scheduler struct {
	clock *simclock.Clock
	units []time.Duration // busy-until per channel/way unit
	ctrl  time.Duration   // busy-until of the controller/bus resource

	active    bool
	start     time.Duration // earliest instant the command may use any resource
	nandStart time.Duration // earliest instant its NAND phase may begin
	end       time.Duration // completion: max end over touched segments
	lastUnit  int           // last unit charged by the current command; -1 none
}

// NewScheduler creates a scheduler over the given number of channel/way
// units (at least 1).
func NewScheduler(clock *simclock.Clock, units int) *Scheduler {
	if units < 1 {
		units = 1
	}
	return &Scheduler{clock: clock, units: make([]time.Duration, units)}
}

// Units reports the number of channel/way units.
func (s *Scheduler) Units() int { return len(s.units) }

// Begin opens a command whose resource use may start no earlier than t.
func (s *Scheduler) Begin(t time.Duration) {
	s.active = true
	s.start, s.nandStart, s.end = t, t, t
	s.lastUnit = -1
}

// LastUnit reports the channel/way unit the most recently charged page
// operation of the current (or just-closed) command landed on, or -1
// when the command touched no single unit (erases, pure controller
// work). The queue uses it to attribute timeouts and retries to a unit
// for health tracking.
func (s *Scheduler) LastUnit() int { return s.lastUnit }

// Hang stalls one unit: its busy-until time jumps forward by stall from
// now (or from its current busy-until, if later). This is the explicit,
// deterministic form of the fault model's HangProb mechanism, used by
// chaos harnesses and degraded-mode benches to stick a die on demand.
func (s *Scheduler) Hang(unit int, stall time.Duration) {
	u := unit % len(s.units)
	if now := s.clock.Now(); s.units[u] < now {
		s.units[u] = now
	}
	s.units[u] += stall
}

// End closes the current command and returns its completion time.
func (s *Scheduler) End() time.Duration {
	s.active = false
	return s.end
}

// Reset marks the controller and every unit idle (power cycle).
func (s *Scheduler) Reset() {
	s.ctrl = 0
	clear(s.units)
}

// noCommand is the panic value of a charge with no command open.
const noCommand = "ncq: NAND charge with no command open"

// ChargeController serializes d on the controller/bus resource and
// pushes the command's NAND phase behind it (the flash operation cannot
// start before the command and its data have crossed the link).
func (s *Scheduler) ChargeController(d time.Duration) {
	if !s.active {
		panic(noCommand)
	}
	st := max(s.start, s.ctrl)
	e := st + d
	s.ctrl = e
	if e > s.nandStart {
		s.nandStart = e
	}
	if e > s.end {
		s.end = e
	}
}

// ChargeUnit occupies one channel/way unit for d, starting when both
// the command's NAND phase and the unit are ready, and returns the
// occupied interval. Implements nand.Charger.
func (s *Scheduler) ChargeUnit(unit int, d time.Duration) (time.Duration, time.Duration) {
	if !s.active {
		panic(noCommand)
	}
	u := unit % len(s.units)
	s.lastUnit = u
	st := max(s.nandStart, s.units[u])
	e := st + d
	s.units[u] = e
	if e > s.end {
		s.end = e
	}
	return st, e
}

// ChargeAll occupies every unit for d starting when the last of them is
// free (block erase over a striped superblock), and returns the
// occupied interval. Implements nand.Charger.
func (s *Scheduler) ChargeAll(d time.Duration) (time.Duration, time.Duration) {
	if !s.active {
		panic(noCommand)
	}
	st := s.nandStart
	for _, b := range s.units {
		if b > st {
			st = b
		}
	}
	e := st + d
	for i := range s.units {
		s.units[i] = e
	}
	s.end = max(s.end, e)
	return st, e
}
