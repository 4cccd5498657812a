package server

import (
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// breaker is the write circuit breaker: it samples the FTL's quarantine
// pressure (a lock-free atomic gauge) on every write admission and, past
// breakerFraction of fenced units, sheds writes with ErrDegraded
// while reads keep flowing — the firmware is busy draining and probing
// sick dies, and piling writes onto the reduced array would turn one bad
// unit into whole-tier timeouts. The breaker closes by itself when the
// firmware re-admits units and pressure drops back under the threshold.
type breaker struct {
	dev        *storage.Device
	open       atomic.Bool
	openTrips  atomic.Int64 // closed -> open transitions
	writeSheds atomic.Int64 // writes shed while open
}

// breakerRetryAfter is the retry-after attached to degraded write sheds:
// breaker state changes on firmware probe timescales, much longer than
// the overload hint.
const breakerRetryAfter = 100 * time.Millisecond

// allowWrite samples pressure and either admits the write or sheds it.
func (b *breaker) allowWrite() error {
	q, units := b.dev.QuarantinePressure()
	open := units > 0 && float64(q) >= breakerFraction*float64(units)
	if b.open.Swap(open) != open && open {
		b.openTrips.Add(1)
	}
	if !open {
		return nil
	}
	b.writeSheds.Add(1)
	return WithRetryAfter(ErrDegraded, breakerRetryAfter)
}
