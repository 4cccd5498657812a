// Package trace is the cross-layer observability spine of the
// simulator: a low-overhead, concurrency-safe recorder of virtual-time
// events that every layer reports into — SQLite transactions, pager
// page ops, simfs syscalls, storage commands, NCQ lifecycle, FTL GC
// episodes, X-FTL commit/abort/recovery phases, and raw NAND
// operations. Because all timestamps come from simclock virtual time,
// a trace of a seeded run is fully deterministic and can be diffed.
//
// The tracer is nil-safe by design: a nil *Tracer is the disabled
// tracer, every method on it no-ops behind a pointer check, and event
// payloads are plain value structs with no strings or interfaces, so
// the disabled hot path performs no allocation (verified by an
// AllocsPerRun guard in the ncq package).
//
// Identity propagation: host-side events carry the session id of the
// mvcc.Session (or raw I/O context) that issued them, threaded down
// through simfs into each device command. Events the firmware raises take
// theirs from the NAND chip, which knows the executing command's
// session, request and origin (nand.Chip.SetCommand, SetOrigin).
package trace

import (
	"sync"
	"time"

	"repro/internal/simclock"
)

// Layer identifies which layer of the stack emitted an event.
type Layer uint8

const (
	LSession Layer = iota // mvcc session lifetime
	LSQL                  // SQLite transaction boundaries
	LPager                // pager page reads / write-outs
	LFS                   // simfs syscalls (write / read / fsync)
	LNCQ                  // device command queue
	LFTL                  // base FTL (GC episodes)
	LXFTL                 // X-FTL commit / abort / recovery phases
	LNAND                 // raw flash operations
	LServer               // serving-tier request lifecycle
)

func (l Layer) String() string {
	switch l {
	case LSession:
		return "session"
	case LSQL:
		return "sql"
	case LPager:
		return "pager"
	case LFS:
		return "fs"
	case LNCQ:
		return "ncq"
	case LFTL:
		return "ftl"
	case LXFTL:
		return "xftl"
	case LNAND:
		return "nand"
	case LServer:
		return "server"
	default:
		return "layer?"
	}
}

// Kind identifies what happened. Kinds are scoped to their layer but
// drawn from one enum so Event stays a single flat struct.
type Kind uint8

const (
	KSession    Kind = iota // session span; Aux: 1=writer 0=reader
	KTxn                    // SQLite txn span; Aux: 1=commit 0=rollback
	KPageRead               // pager cache-miss page read; Addr=pgno
	KPageWrite              // pager page write into the page cache; Addr=pgno
	KFSWrite                // simfs page write; Aux: write class (WDB/WJournal/WFSMeta)
	KFSRead                 // simfs page read (file or snapshot); Addr=page
	KFSync                  // simfs fsync span; Aux: journal mode
	KCmd                    // NCQ command; Op valid, Disp=dispatch, Depth=queue depth
	KGC                     // FTL GC episode span; Addr=victim block, Aux=valid copies
	KXCommit                // X-FTL commit span; Aux=remapped entries
	KXAbort                 // X-FTL abort; Aux=discarded entries
	KXRecover               // device recovery span; Aux=pages scanned
	KNandRead               // one page read; Addr=ppn, Unit set
	KNandProg               // one page program; Addr=ppn, Unit set
	KNandErase              // one block erase; Addr=block, all units
	KRetry                  // NCQ command retry; Addr=lpn, Aux=attempt, Unit set
	KTimeout                // NCQ command deadline exceeded; Addr=lpn, Aux=attempt, Unit set
	KQuarantine             // unit quarantine transition; Unit set, Aux: 1=enter 0=re-admit
	KXPrepare               // X-FTL 2PC prepare span; Aux=prepared entries
	KRequest                // serving-tier request span; Req=request id, Aux: 1=served 0=failed
)

func (k Kind) String() string {
	switch k {
	case KSession:
		return "session"
	case KTxn:
		return "txn"
	case KPageRead:
		return "page-read"
	case KPageWrite:
		return "page-write"
	case KFSWrite:
		return "fs-write"
	case KFSRead:
		return "fs-read"
	case KFSync:
		return "fsync"
	case KCmd:
		return "cmd"
	case KGC:
		return "gc"
	case KXCommit:
		return "x-commit"
	case KXAbort:
		return "x-abort"
	case KXRecover:
		return "recover"
	case KNandRead:
		return "nand-read"
	case KNandProg:
		return "nand-prog"
	case KNandErase:
		return "nand-erase"
	case KRetry:
		return "retry"
	case KTimeout:
		return "timeout"
	case KQuarantine:
		return "quarantine"
	case KXPrepare:
		return "x-prepare"
	case KRequest:
		return "request"
	default:
		return "kind?"
	}
}

// Write classes for KFSWrite.Aux, mirroring metrics.HostCounters.
const (
	WDB      = 0 // database page write
	WJournal = 1 // rollback-journal page write
	WFSMeta  = 2 // filesystem metadata write
)

// Origin tags why an operation happened: on whose behalf the firmware
// (or host) was working.
type Origin uint8

const (
	OHost     Origin = iota // direct host I/O
	OGC                     // garbage-collection relocation / erase
	OMeta                   // FTL metadata (mapping groups, BBT, meta ring)
	OCommit                 // transaction fate: commit/abort/barrier work
	ORecovery               // post-power-cut mount
)

func (o Origin) String() string {
	switch o {
	case OHost:
		return "host"
	case OGC:
		return "gc"
	case OMeta:
		return "meta"
	case OCommit:
		return "commit"
	case ORecovery:
		return "recovery"
	default:
		return "origin?"
	}
}

// Event is one recorded occurrence. All times are simclock virtual
// time. Point events have Dur 0; spans carry their full extent. The
// struct is flat and string-free so recording never allocates beyond
// the shared buffer's growth.
type Event struct {
	Start time.Duration // virtual-time start
	Dur   time.Duration // virtual-time duration (0 for point events)
	Disp  time.Duration // KCmd only: dispatch time (service could begin)

	Sess uint64 // session id of the responsible host context; 0 = none
	Req  uint64 // serving-tier request id the op serves; 0 = none
	TID  uint64 // transaction / snapshot id when the op carries one
	Addr int64  // lpn / ppn / pgno / block, per Kind
	Aux  int64  // kind-specific payload (see Kind docs)

	Unit  int32  // NAND unit for chip ops; -1 = all units / not applicable
	Depth int32  // KCmd: outstanding commands at submit
	Gen   uint16 // attach generation the event belongs to (stamped by Record)

	Layer  Layer
	Kind   Kind
	Origin Origin
	Op     uint8 // KCmd: the ncq.Op byte
}

// Tracer records events. The zero value is not usable; construct with
// New. A nil *Tracer is the disabled tracer: every method no-ops.
type Tracer struct {
	mu     sync.Mutex
	clock  *simclock.Clock
	events []Event
	gen    uint16   // current attach generation
	labels []string // label per generation, index gen-1
}

// New creates an empty tracer. Attach a clock before recording.
func New() *Tracer { return &Tracer{} }

// Attach binds the tracer to a virtual clock and opens a new
// generation with the given label. Benchmarks that build a fresh stack
// per point call Attach once per point; the exporter renders each
// generation as its own process so restarted clocks do not collide.
func (t *Tracer) Attach(clock *simclock.Clock, label string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock = clock
	t.labels = append(t.labels, label)
	t.gen = uint16(len(t.labels))
}

// Now reads the attached virtual clock; 0 when disabled or unattached.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	c := t.clock
	t.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Now()
}

// Record appends one event, stamping it with the current generation.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev.Gen = t.gen
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// GenLabel returns the label passed to the Attach that opened
// generation g (1-based; "" for unknown generations).
func (t *Tracer) GenLabel(g uint16) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if g == 0 || int(g) > len(t.labels) {
		return ""
	}
	return t.labels[g-1]
}

// Len reports how many events have been recorded.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}
