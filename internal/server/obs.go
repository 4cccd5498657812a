// Per-request observability: stage-cut timing, the slow-request ring,
// and request-id minting.
//
// Every data-path request gets a monotonic ReqID minted at the server.
// The id travels three ways at once: back to the client on the wire
// (Response.ReqID), down the stack as I/O attribution (mvcc session →
// simfs context → ncq.Request → NAND trace events), and into the
// request's own KRequest trace span — so a Perfetto export links one
// server request to exactly the queue dispatches and flash programs it
// caused.
//
// Stage timing uses a cut model: a request carries a running mark, and
// each pipeline step cuts the elapsed wall time since the previous
// mark into its named stage. The final cut lands in "other"
// (serialization, scheduling noise), so the per-stage breakdown sums
// to the request's wall latency by construction — the property the
// slow-ring entries and the exposition consistency tests rely on.
package server

import (
	"sort"
	"sync"
	"time"
)

// Stage indexes for reqTrack.stages; stageNames must match.
const (
	stageAdmission = iota // waiting for an execution slot
	stageBegin            // session begin: routing, locks, snapshot open
	stageExec             // statement execution
	stageCommit           // commit / rollback, including 2PC stages
	stageOther            // everything between the last cut and finish
	numStages
)

var stageNames = [numStages]string{"admission", "begin", "exec", "commit", "other"}

// opIndex maps a data-path op to its per-op histogram slot (-1: none).
func opIndex(op string) int {
	switch op {
	case OpQuery:
		return 0
	case OpExec:
		return 1
	case OpBegin:
		return 2
	case OpCommit:
		return 3
	case OpRollback:
		return 4
	}
	return -1
}

// opHistNames must match opIndex's slots.
var opHistNames = [...]string{OpQuery, OpExec, OpBegin, OpCommit, OpRollback}

// reqTrack accumulates one request's identity and stage cuts. The
// connection owns one and tracks each of its requests in it in turn.
type reqTrack struct {
	id      uint64
	op      string
	db      string
	start   time.Time
	mark    time.Time
	stages  [numStages]time.Duration
	touched [numStages]bool
	vt      time.Duration // virtual-time start of the KRequest span
}

// cut attributes the wall time since the previous mark to a stage.
// Cutting marks the stage touched even at zero elapsed time, so stage
// histogram counts stay exactly consistent with request counts.
func (rt *reqTrack) cut(stage int) {
	now := time.Now()
	rt.stages[stage] += now.Sub(rt.mark)
	rt.touched[stage] = true
	rt.mark = now
}

// track mints a request id into rt and starts its stage clock.
func (s *Server) track(rt *reqTrack, op, db string) {
	now := time.Now()
	*rt = reqTrack{id: s.nextReq.Add(1), op: op, db: db, start: now, mark: now}
}

// SlowEntry is one captured slow request: identity, outcome, wall
// latency and the per-stage breakdown (touched stages only, in
// pipeline order). Served by the slow wire op and /debug/slow.
type SlowEntry struct {
	ReqID  uint64    `json:"req_id"`
	Op     string    `json:"op"`
	DB     string    `json:"db"`
	OK     bool      `json:"ok"`
	Code   string    `json:"code,omitempty"`
	WallUS int64     `json:"wall_us"`
	Stages []StageUS `json:"stages"`
}

// StageUS is one stage's share of a slow request, in microseconds.
type StageUS struct {
	Stage string `json:"stage"`
	US    int64  `json:"us"`
}

// slowRing keeps the slowest N requests seen so far. N is small
// (slowCount), so eviction scans instead of maintaining a heap; offers on
// the request path cost one short critical section.
type slowRing struct {
	mu   sync.Mutex
	ents []SlowEntry // capacity N
}

func newSlowRing(size int) *slowRing {
	return &slowRing{ents: make([]SlowEntry, 0, size)}
}

// offer records a finished request if it ranks among the slowest. It
// decides first and builds the entry only for a request that ranks: on
// a full ring of slower requests an offer allocates nothing.
func (r *slowRing) offer(rt *reqTrack, ok bool, code string, wall time.Duration) {
	us := wall.Microseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	i := len(r.ents)
	if i < cap(r.ents) {
		r.ents = r.ents[:i+1]
	} else {
		i = 0
		for j := range r.ents {
			if r.ents[j].WallUS < r.ents[i].WallUS {
				i = j
			}
		}
		if us <= r.ents[i].WallUS {
			return
		}
	}
	r.ents[i] = rt.entry(ok, code, us)
}

// snapshot returns the captured requests, slowest first.
func (r *slowRing) snapshot() []SlowEntry {
	r.mu.Lock()
	out := make([]SlowEntry, len(r.ents))
	copy(out, r.ents)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].WallUS != out[j].WallUS {
			return out[i].WallUS > out[j].WallUS
		}
		return out[i].ReqID < out[j].ReqID
	})
	return out
}

// entry converts a finished track into its slow-ring form.
func (rt *reqTrack) entry(ok bool, code string, wallUS int64) SlowEntry {
	e := SlowEntry{
		ReqID:  rt.id,
		Op:     rt.op,
		DB:     rt.db,
		OK:     ok,
		Code:   code,
		WallUS: wallUS,
	}
	// Round the running sum, not each stage: the stages then add up to
	// the wall latency's microseconds exactly, however short they are.
	var sum time.Duration
	var done int64
	for i, d := range rt.stages {
		sum += d
		if rt.touched[i] {
			us := sum.Microseconds()
			e.Stages = append(e.Stages, StageUS{Stage: stageNames[i], US: us - done})
			done = us
		}
	}
	return e
}

// Slow returns the slowest captured requests, slowest first.
func (s *Server) Slow() []SlowEntry { return s.slow.snapshot() }
