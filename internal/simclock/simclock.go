// Package simclock provides the deterministic virtual time base used by
// the device simulators. All elapsed-time results in this repository are
// measured on a simclock.Clock rather than the wall clock, so runs are
// reproducible and the measured time reflects only simulated device work
// (NAND operations, bus transfers, controller overhead), matching the
// paper's observation that SQLite-on-flash performance is I/O bound.
package simclock

import (
	"sync"
	"time"
)

// Clock is a monotonically advancing simulated clock. The zero value is
// ready to use and reads zero. It is safe for concurrent use.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
}

// New returns a clock starting at zero simulated time.
func New() *Clock { return &Clock{} }

// Now reports the current simulated time since the clock was created.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time.
// Negative durations are ignored.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		return c.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

// AdvanceTo moves the clock to t if t is later than the current time.
// It returns the (possibly unchanged) current time. AdvanceTo models a
// resource that becomes free at t: callers that arrive earlier wait,
// callers that arrive later are unaffected.
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	return c.now
}
