// Command deadlines, retry policy and health reporting for the NCQ
// queue — the firmware's first line of defense against a misbehaving
// flash array.
//
// Real NVMe/SATA firmware never lets a single command hang the queue:
// commands carry deadlines, expired commands are aborted and reissued
// with backoff, and per-resource error counters feed a health model
// that can fence off a sick die. This file adds the queue half of that
// plane: per-command virtual-time deadlines (a command whose completion
// lands past submit+deadline is observed as timed out), a bounded
// retry loop with exponential virtual-time backoff (reads reissue in
// place; writes reissue through the copy-on-write allocator, which
// re-routes them to a healthy unit once allocation steers away), and a
// HealthSink callback so the FTL's channel-health tracker sees every
// per-unit outcome. The zero-value RetryPolicy preserves the legacy
// single-attempt, no-deadline behaviour exactly.
package ncq

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/nand"
)

// Typed, errors.Is-matchable queue failure sentinels.
var (
	// ErrCmdTimeout retires a command whose retry budget is exhausted
	// while it keeps failing or overrunning its deadline. The original
	// cause stays in the wrap chain.
	ErrCmdTimeout = errors.New("ncq: command deadline exceeded")
	// ErrAbandoned fails commands submitted to a queue whose in-flight
	// window was abandoned by a power cut and not yet resumed.
	ErrAbandoned = errors.New("ncq: queue abandoned")
	// ErrPowerCutWindow tags the command that was actually in flight
	// when power died — its window of work is lost with the device.
	ErrPowerCutWindow = errors.New("ncq: power cut inside command window")
)

// errAbandonedPower is the prebuilt error for submissions to an
// abandoned queue. It wraps nand.ErrPowerLost so existing
// errors.Is(err, nand.ErrPowerLost) crash detection keeps working, and
// is package-level so the rejection path never allocates.
var errAbandonedPower = fmt.Errorf("%w: %w", ErrAbandoned, nand.ErrPowerLost)

const (
	// DefaultMaxAttempts bounds the retry loop when RetryPolicy sets a
	// deadline but no attempt count.
	DefaultMaxAttempts = 8
	// DefaultBackoff is the initial virtual-time backoff between
	// attempts, doubling per retry.
	DefaultBackoff = 250 * time.Microsecond
)

// RetryPolicy configures per-command deadlines and the retry loop. The
// zero value disables both: one attempt, no deadline — exactly the
// pre-policy queue.
type RetryPolicy struct {
	// Deadline is the per-attempt virtual-time budget for data-path
	// commands; an attempt whose completion lands later than
	// start+Deadline is observed as timed out and reissued. Zero
	// disables timeout detection. Barrier-class ops (commit, abort,
	// barrier) are exempt — they fence arbitrary amounts of queued
	// work by design.
	Deadline time.Duration
	// MaxAttempts bounds execution attempts per command. Zero means 1
	// (no retries) unless Deadline is set, in which case it means
	// DefaultMaxAttempts.
	MaxAttempts int
}

// HealthSink receives per-unit command outcomes from the queue. The
// FTL's channel-health tracker implements it to count faults toward
// quarantine thresholds and clean completions toward re-admission.
// Calls arrive under the queue lock, and the sink must not call back
// into the queue. CommandFault runs in a command window of its own, so
// it may do NAND work (a quarantine drain); the other two must not.
type HealthSink interface {
	// CommandOK reports a command whose final attempt completed
	// cleanly on unit.
	CommandOK(unit int, op Op)
	// CommandFault reports one failed attempt on unit: a deadline
	// overrun (timedOut true) or a transient interface fault.
	CommandFault(unit int, op Op, timedOut bool)
	// Quarantined reports whether the unit is currently fenced; the
	// queue drops to depth 1 (probe discipline) for commands that
	// target a fenced unit.
	Quarantined(unit int) bool
}

// SetRetryPolicy installs the queue's deadline/retry policy.
func (q *Queue) SetRetryPolicy(p RetryPolicy) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.policy = p
}

// SetHealthSink installs (or, with nil, removes) the health sink.
func (q *Queue) SetHealthSink(h HealthSink) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.health = h
}

// SetUnitHint installs a resolver mapping a request to the channel/way
// unit it will touch (-1 when unknown), used to fence commands aimed
// at a quarantined unit before they execute. Called under the queue
// lock.
func (q *Queue) SetUnitHint(fn func(*Request) int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.unitHint = fn
}

// Retries reports how many command attempts were reissued.
func (q *Queue) Retries() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.retries
}

// Timeouts reports how many attempts overran their deadline.
func (q *Queue) Timeouts() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.timeouts
}

// Resume re-opens an abandoned queue after firmware recovery
// (storage.Device.Restart): submissions are accepted again.
func (q *Queue) Resume() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.abandoned = false
}
