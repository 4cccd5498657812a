package ncq

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// DefaultDepth is the queue depth used when Options leave it zero,
// matching SATA NCQ's 32 outstanding commands.
const DefaultDepth = 32

// Op identifies a queued device command.
type Op uint8

const (
	OpRead Op = iota
	OpWrite
	OpTrim
	OpBarrier
	OpReadTx
	OpWriteTx
	OpCommit
	OpAbort
	// OpSnapRead reads a logical page through an open snapshot handle
	// (TID carries the snapshot id). It deliberately does not take part
	// in per-LPN ordering: it targets the version pinned at snapshot
	// open, so an in-flight write to the same LPN — which lands in a
	// different physical page — imposes no ordering on it. That is the
	// device-level form of "readers never block on the writer".
	OpSnapRead
	// OpPrepare is phase one of a cross-device two-phase commit: the
	// transaction's X-L2P entries become durably "prepared" (they
	// survive a power cut as in-doubt instead of being discarded), but
	// no mapping changes are published. A later OpCommit or OpAbort —
	// possibly after a remount, driven by the fleet coordinator —
	// resolves the transaction. Like commit, it fences the queue.
	OpPrepare
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpTrim:
		return "trim"
	case OpBarrier:
		return "barrier"
	case OpReadTx:
		return "readtx"
	case OpWriteTx:
		return "writetx"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	case OpSnapRead:
		return "snapread"
	case OpPrepare:
		return "prepare"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// IsBarrier reports whether the op fences the queue: it waits for every
// outstanding command to complete before starting, and nothing behind
// it starts until it completes. Commit and abort are barriers per the
// paper's §4.2 — a transaction's fate must not reorder around the page
// state changes it implies.
func (o Op) IsBarrier() bool {
	return o == OpBarrier || o == OpCommit || o == OpAbort || o == OpPrepare
}

// targetsLPN reports whether the op addresses one logical page (and so
// participates in per-LPN ordering).
func (o Op) targetsLPN() bool {
	switch o {
	case OpRead, OpWrite, OpTrim, OpReadTx, OpWriteTx:
		return true
	}
	return false
}

// Request is one queued command. The submitter fills Op plus the
// operands the op needs (LPN, TID, Data for writes, Buf for reads); the
// queue fills Err and the timing fields.
type Request struct {
	Op   Op
	LPN  int64
	TID  uint64
	Data []byte // page payload for writes; owned by the queue until return
	Buf  []byte // destination for reads

	// Sess, Req and Origin attribute the command: the host session
	// (mvcc.Session or raw I/O context) that issued it, the serving-tier
	// request it serves, and why. The executor hands Sess and Req on to
	// the firmware's NAND work. All are zero-valued (no session, no
	// request, host origin) when untraced.
	Sess   uint64
	Req    uint64
	Origin trace.Origin

	Err       error
	Submitted time.Duration // virtual time the request entered the queue
	Started   time.Duration // virtual time its resource use could begin
	Done      time.Duration // virtual completion time
}

// Executor runs one command against the device firmware, charging its
// cost through the scheduler, and returns the command's error. The
// queue serializes calls.
type Executor func(*Request) error

// Queue is the NCQ command queue. Submission order is execution order
// for firmware state (the simulated firmware runs commands back to
// back), but completion times come from the channel scheduler and may
// reorder freely: a command's Done is when its last touched resource
// frees, so commands on idle channels complete out of order past
// slower predecessors. The virtual clock only advances when the queue
// is full (the host must wait for a slot), on barriers, and in
// SubmitWait.
//
// Queue is safe for concurrent use by multiple submitters.
type Queue struct {
	mu    sync.Mutex
	clock *simclock.Clock
	sched *Scheduler
	exec  Executor
	depth int

	outstanding []pending               // in-flight commands, at most depth
	byLPN       map[int64]time.Duration // LPN -> completion gate

	// slot is the command being run: Submit and SubmitWait copy the
	// caller's Request in and the outcome back out, so a Request never
	// escapes its caller (the executor and the unit hint are func
	// values, which would move it to the heap), and clear it afterwards,
	// so the queue keeps no Data.
	slot Request

	// tracer, when non-nil, receives one KCmd event per submitted
	// command. A nil tracer costs one pointer compare on the submit
	// path and zero allocations (guarded by TestSubmitNoAllocs...).
	tracer *trace.Tracer

	// Deadline/retry plane (retry.go). The zero-value policy is the
	// legacy single-attempt queue; abandoned is set by power loss and
	// cleared by Resume after firmware recovery.
	policy    RetryPolicy
	health    HealthSink
	unitHint  func(*Request) int
	retries   int64 // attempts reissued
	timeouts  int64 // attempts that overran their deadline
	abandoned bool
	closed    bool // Close ran: reject all future submissions

	// Per-class latency histograms.
	ReadLat    metrics.LatencyHist
	WriteLat   metrics.LatencyHist
	BarrierLat metrics.LatencyHist
}

type pending struct {
	done time.Duration
}

// New creates a queue of the given depth (0 selects DefaultDepth) over
// a scheduler and an executor.
func New(clock *simclock.Clock, sched *Scheduler, depth int, exec Executor) *Queue {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return &Queue{
		clock: clock,
		sched: sched,
		exec:  exec,
		depth: depth,
		byLPN: make(map[int64]time.Duration),
	}
}

// SetTracer installs (or, with nil, removes) the event tracer.
func (q *Queue) SetTracer(t *trace.Tracer) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.tracer = t
}

// InFlight reports how many commands are currently outstanding.
func (q *Queue) InFlight() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.outstanding)
}

// Submit queues one command. It returns once the command has been
// issued (asynchronous completion): the request's Err and Done are
// filled in, but the virtual clock has only advanced if the queue was
// full or the op was a barrier. Drain makes all completions visible in
// virtual time.
func (q *Queue) Submit(r *Request) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.runLocked(r)
}

// SubmitWait queues one command and waits for its completion in
// virtual time — the depth-1 synchronous path used by the classic
// Device methods.
func (q *Queue) SubmitWait(r *Request) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	err := q.runLocked(r)
	q.clock.AdvanceTo(r.Done)
	// The command is no longer outstanding; retire its slot.
	for i := range q.outstanding {
		if q.outstanding[i].done == r.Done {
			q.outstanding[i] = q.outstanding[len(q.outstanding)-1]
			q.outstanding = q.outstanding[:len(q.outstanding)-1]
			break
		}
	}
	q.pruneLPNLocked()
	return err
}

// runLocked submits *r from the queue's slot and copies the outcome back.
func (q *Queue) runLocked(r *Request) error {
	q.slot = *r
	err := q.submitLocked(&q.slot)
	*r, q.slot = q.slot, Request{}
	return err
}

func (q *Queue) submitLocked(r *Request) error {
	if q.closed {
		r.Submitted = q.clock.Now()
		r.Started, r.Done = r.Submitted, r.Submitted
		r.Err = ErrQueueClosed
		return r.Err
	}
	if q.abandoned {
		// The in-flight window died with the power; nothing is accepted
		// until firmware recovery resumes the queue.
		r.Submitted = q.clock.Now()
		r.Started, r.Done = r.Submitted, r.Submitted
		r.Err = errAbandonedPower
		return r.Err
	}
	r.Submitted = q.clock.Now()
	if r.Op.IsBarrier() {
		q.drainLocked()
	} else if len(q.outstanding) >= q.depth {
		q.retireEarliestLocked()
	}
	if q.health != nil && q.unitHint != nil && !r.Op.IsBarrier() {
		if u := q.unitHint(r); u >= 0 && q.health.Quarantined(u) {
			// Probe discipline: a command aimed at a quarantined unit
			// runs at queue depth 1, so a stuck die can hold at most one
			// command hostage at a time.
			q.drainLocked()
		}
	}
	deadline := q.policy.Deadline
	maxAttempts := q.policy.MaxAttempts
	if maxAttempts < 1 {
		if deadline > 0 {
			maxAttempts = DefaultMaxAttempts
		} else {
			maxAttempts = 1
		}
	}
	if r.Op.IsBarrier() {
		// Barriers fence arbitrary amounts of queued work; exempt.
		deadline = 0
	}
	backoff := DefaultBackoff
	for attempt := 1; ; attempt++ {
		start := q.clock.Now()
		if r.Op.targetsLPN() {
			// Per-LPN ordering: a command on an LPN with an in-flight
			// predecessor may not begin until that predecessor completes.
			if gate, ok := q.byLPN[r.LPN]; ok && gate > start {
				start = gate
			}
		}
		q.sched.Begin(start)
		r.Err = q.exec(r)
		r.Started = start
		r.Done = q.sched.End()
		if r.Err != nil && errors.Is(r.Err, nand.ErrPowerLost) {
			// Power died: every in-flight command is lost with it. Leave
			// the clock where it is; nothing completes, and the queue
			// stays abandoned until recovery resumes it.
			q.outstanding = q.outstanding[:0]
			clear(q.byLPN)
			q.abandoned = true
			r.Done = q.clock.Now()
			r.Err = fmt.Errorf("%w: %w", ErrPowerCutWindow, r.Err)
			return r.Err
		}
		unit := q.sched.LastUnit()
		timedOut := deadline > 0 && r.Done-start > deadline
		transient := r.Err != nil && errors.Is(r.Err, nand.ErrTransient)
		if !timedOut && !transient {
			if q.health != nil && unit >= 0 {
				q.health.CommandOK(unit, r.Op)
			}
			break
		}
		if timedOut {
			q.timeouts++
			if q.tracer != nil {
				q.tracer.Record(trace.Event{
					Layer: trace.LNCQ, Kind: trace.KTimeout,
					Start: start, Dur: deadline,
					Sess: r.Sess, Req: r.Req, TID: r.TID, Addr: r.LPN,
					Aux: int64(attempt), Unit: int32(unit),
					Origin: r.Origin, Op: uint8(r.Op),
				})
			}
		}
		if q.health != nil && unit >= 0 {
			q.windowLocked(func() { q.health.CommandFault(unit, r.Op, timedOut) })
		}
		if attempt >= maxAttempts {
			// Retry budget exhausted. A late success stands — the data
			// did arrive, just slowly; a still-failing command is
			// retired with the typed timeout sentinel, original cause
			// in the wrap chain.
			if r.Err != nil {
				r.Err = fmt.Errorf("%w (op %v lpn %d, %d attempts): %w",
					ErrCmdTimeout, r.Op, r.LPN, attempt, r.Err)
			}
			break
		}
		// The host observes the failure — a transient at its completion,
		// a timeout at deadline expiry — then reissues after an
		// exponentially growing backoff. A hung unit stays busy in the
		// scheduler, so reissued attempts keep timing out until the
		// stall drains; each one moves the clock at least a deadline
		// forward, bounding how long the stall can hold the command.
		q.retries++
		wait := r.Done
		if timedOut && start+deadline < wait {
			wait = start + deadline
		}
		q.clock.AdvanceTo(wait)
		q.clock.Advance(backoff)
		backoff *= 2
		if q.tracer != nil {
			q.tracer.Record(trace.Event{
				Layer: trace.LNCQ, Kind: trace.KRetry,
				Start: q.clock.Now(),
				Sess:  r.Sess, Req: r.Req, TID: r.TID, Addr: r.LPN,
				Aux: int64(attempt), Unit: int32(unit),
				Origin: r.Origin, Op: uint8(r.Op),
			})
		}
	}
	q.outstanding = append(q.outstanding, pending{done: r.Done})
	if r.Op.targetsLPN() && r.Done > q.byLPN[r.LPN] {
		q.byLPN[r.LPN] = r.Done
	}
	q.observeLocked(r)
	if q.tracer != nil {
		origin := r.Origin
		if origin == trace.OHost && r.Op.IsBarrier() {
			origin = trace.OCommit
		}
		q.tracer.Record(trace.Event{
			Layer: trace.LNCQ, Kind: trace.KCmd,
			Start: r.Submitted, Dur: r.Done - r.Submitted, Disp: r.Started,
			Sess: r.Sess, Req: r.Req, TID: r.TID, Addr: r.LPN,
			Depth: int32(len(q.outstanding)), Origin: origin, Op: uint8(r.Op),
		})
	}
	if r.Op.IsBarrier() {
		// A barrier completes synchronously: nothing behind it may
		// start earlier, so the whole queue (just this command now)
		// drains to its completion time.
		q.drainLocked()
	}
	return r.Err
}

// retireEarliestLocked waits (in virtual time) for the earliest
// completion among outstanding commands, freeing one queue slot.
func (q *Queue) retireEarliestLocked() {
	mi := 0
	for i := range q.outstanding {
		if q.outstanding[i].done < q.outstanding[mi].done {
			mi = i
		}
	}
	t := q.outstanding[mi].done
	q.outstanding[mi] = q.outstanding[len(q.outstanding)-1]
	q.outstanding = q.outstanding[:len(q.outstanding)-1]
	q.clock.AdvanceTo(t)
	q.pruneLPNLocked()
}

// drainLocked completes every outstanding command in virtual time.
func (q *Queue) drainLocked() {
	var maxT time.Duration
	for i := range q.outstanding {
		if q.outstanding[i].done > maxT {
			maxT = q.outstanding[i].done
		}
	}
	q.outstanding = q.outstanding[:0]
	q.clock.AdvanceTo(maxT)
	clear(q.byLPN)
}

// pruneLPNLocked drops per-LPN gates that have passed.
func (q *Queue) pruneLPNLocked() {
	now := q.clock.Now()
	for l, t := range q.byLPN {
		if t <= now {
			delete(q.byLPN, l)
		}
	}
}

// Drain completes every outstanding command, advancing virtual time to
// the last completion. Benches call it before reading the clock.
func (q *Queue) Drain() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.drainLocked()
}

// ErrQueueClosed fails commands submitted after Close.
var ErrQueueClosed = errors.New("ncq: queue closed")

// Close drains the queue and permanently rejects further submissions.
// Each fleet member owns an independent queue (own mutex, own clock),
// so closing one cannot block another member's drain; a straggler that
// submits to a closed member fails fast with ErrQueueClosed instead of
// mutating a half-torn-down device. Idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.drainLocked()
	q.closed = true
}

// Exclusive runs fn while holding the queue lock with no command in
// flight executing — the control-plane path for power cuts, restarts
// and metadata corruption, which must not interleave with commands.
// fn runs as one command window opened now, so any NAND work it does
// is charged to its units, and the clock advances to the window's end,
// which Exclusive returns. fn must not call back into the queue.
func (q *Queue) Exclusive(fn func()) time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.windowLocked(fn)
}

// windowLocked runs fn as one command window opened now and advances
// the clock to the window's end, which it returns.
func (q *Queue) windowLocked(fn func()) time.Duration {
	q.sched.Begin(q.clock.Now())
	fn()
	end := q.sched.End()
	q.clock.AdvanceTo(end)
	return end
}

// Abandon discards all outstanding commands without completing them
// (power loss: in-flight work dies with the device). The queue rejects
// further submissions with ErrAbandoned until Resume is called.
func (q *Queue) Abandon() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.outstanding = q.outstanding[:0]
	clear(q.byLPN)
	q.abandoned = true
}

func (q *Queue) observeLocked(r *Request) {
	lat := r.Done - r.Submitted
	switch {
	case r.Op.IsBarrier():
		q.BarrierLat.Observe(lat)
	case r.Op == OpRead || r.Op == OpReadTx || r.Op == OpSnapRead:
		q.ReadLat.Observe(lat)
	default:
		q.WriteLat.Observe(lat)
	}
}
