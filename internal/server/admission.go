package server

import (
	"sync/atomic"
	"time"
)

// admissionStats are the admission gate's cumulative counters.
type admissionStats struct {
	Admitted      atomic.Int64 // requests that got an execution slot
	Shed          atomic.Int64 // requests shed with ErrOverload (queue full)
	DeadlineDrops atomic.Int64 // requests whose budget expired while queued
}

// admission is the bounded front door: a fixed number of execution
// slots, at most maxQueue requests waiting for one, everything past
// that shed immediately. The wait is bounded by the request's own
// deadline, so a queued request can never outlive its budget — excess
// load turns into fast typed rejections, not a growing queue.
type admission struct {
	slots    chan struct{}
	queued   atomic.Int64
	maxQueue int64
	stats    admissionStats
}

func newAdmission(maxConcurrent, maxQueue int) *admission {
	return &admission{
		slots:    make(chan struct{}, maxConcurrent),
		maxQueue: int64(maxQueue),
	}
}

// acquire takes an execution slot, waiting in the bounded queue until
// deadline. It returns ErrOverload (with a retry-after hint) when the
// queue is full, ErrDeadline when the budget expires first.
func (a *admission) acquire(deadline time.Time) error {
	select {
	case a.slots <- struct{}{}:
		a.stats.Admitted.Add(1)
		return nil
	default:
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		a.stats.Shed.Add(1)
		return WithRetryAfter(ErrOverload, shedRetryAfter)
	}
	defer a.queued.Add(-1)
	wait := time.Until(deadline)
	if wait <= 0 {
		a.stats.DeadlineDrops.Add(1)
		return ErrDeadline
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		a.stats.Admitted.Add(1)
		return nil
	case <-t.C:
		a.stats.DeadlineDrops.Add(1)
		return ErrDeadline
	}
}

// release frees an execution slot.
func (a *admission) release() { <-a.slots }

// inFlight reports how many execution slots are taken.
func (a *admission) inFlight() int { return len(a.slots) }
