// Package shard partitions a logical keyspace of databases across a
// fleet of independent X-FTL stacks. Each shard is a complete device +
// file-system + session-manager column — its own NCQ, garbage
// collector, quarantine state, virtual clock and tracer generation —
// so shards simulate in parallel without serializing on any shared
// state, which is exactly how real fleets scale: by adding devices.
// Every database runs X-FTL MVCC sessions: snapshot readers, served warm
// from a reader pool, beside one FIFO writer.
//
// A hash of the database name picks its shard. Transactions that
// touch one shard pass straight through to the owning stack's
// mvcc.Manager and pay nothing for the fleet. Transactions that span
// shards run two-phase commit built on the trim-encoded prepare /
// commit / abort device commands: a coordinator record journaled on
// shard 0 is the global commit point, and power-cut recovery resolves
// in-doubt participants from that record (presumed abort for anything
// the record does not name).
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	xftl "repro"
	"repro/internal/metrics"
	"repro/internal/mvcc"
	"repro/internal/sqlite/pager"
	"repro/internal/storage"
)

// Errors returned by the fleet.
var (
	ErrClosed     = errors.New("shard: fleet closed")
	ErrTxDone     = errors.New("shard: transaction already finished")
	ErrUnknownDB  = errors.New("shard: database not part of this transaction")
	ErrCrashPoint = errors.New("shard: power cut at injected crash point")
)

// route maps a database name to one of n shards: FNV-1a of the name
// modulo the shard count. Stateless, deterministic and total, uniform
// for realistic name sets.
func route(db string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(db))
	return int(h.Sum32() % uint32(n))
}

// Options configures a fleet.
type Options struct {
	// Shards is the member count (default 1).
	Shards int
	// Profile is the hardware profile every member uses.
	Profile xftl.Profile
	// Stack configures each member's device (NCQ depth, retry plane,
	// FTL...). A non-nil Stack.Fault is rejected for Shards > 1.
	Stack storage.Options
}

// Every database's sessions are X-FTL MVCC: snapshot readers beside a
// FIFO writer over journal mode Off, with pipelined page I/O and these
// sizes. The pooled readers share readPool × cacheSize cache pages; the
// writer caches cacheSize beside them, plus that whole budget while no
// reader is live.
const (
	cacheSize = 64 // the SQLite page cache per connection, in pages
	readPool  = 8  // warm reader connections pooled per database
)

// Fleet is a set of independent X-FTL stacks with a router in front.
type Fleet struct {
	stacks []*xftl.Stack

	mu       sync.Mutex
	mgrs     []map[string]*mvcc.Manager // per shard: db name → manager
	closed   bool
	nextGtid uint64

	// gates serialize each shard's commit points against that shard's
	// 2PC windows: single-shard writers hold the shard's gate shared for
	// the session, a cross-shard transaction holds it exclusive from
	// prepare through resolution. This is what makes the file-system
	// prepared-image capture sound — no commit of a prepared group's
	// files can interleave with the window.
	gates []*sync.RWMutex

	coord *coordLog

	// crashHook, when set, is consulted at named points inside the 2PC
	// commit path; returning true power-cuts the whole fleet there.
	// Installed by torture tests via SetCrashHook.
	crashHook func(stage string) bool

	// Stats.
	CrossTx     atomic.Int64 // cross-shard transactions committed
	CrossAborts atomic.Int64 // cross-shard transactions aborted
	Resolved    atomic.Int64 // in-doubt participants resolved at Remount

	// Wall-clock 2PC stage timing, observed by Tx.Commit: phase-one
	// prepares, the coordinator decision append, and phase-two commits.
	// Unlike the virtual-time tracer these measure real elapsed time, so
	// the serving tier can export them as Prometheus histograms.
	PrepareLat metrics.LatencyHist
	DecideLat  metrics.LatencyHist
	CommitLat  metrics.LatencyHist
}

// New builds a fleet of opts.Shards independent stacks.
func New(opts Options) (*Fleet, error) {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	stacks, err := xftl.NewFleet(opts.Shards, opts.Profile, opts.Stack)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		stacks:   stacks,
		mgrs:     make([]map[string]*mvcc.Manager, opts.Shards),
		gates:    make([]*sync.RWMutex, opts.Shards),
		nextGtid: 1,
		coord:    newCoordLog(stacks[0].FS),
	}
	for i := range f.mgrs {
		f.mgrs[i] = make(map[string]*mvcc.Manager)
		f.gates[i] = &sync.RWMutex{}
	}
	f.register(f.Metrics())
	return f, nil
}

// Shards reports the member count.
func (f *Fleet) Shards() int { return len(f.stacks) }

// Stacks exposes the member stacks (index = shard id) for benches and
// gauges. Callers must not close them individually; use Fleet.Close.
func (f *Fleet) Stacks() []*xftl.Stack { return f.stacks }

// Route reports which shard owns a database name.
func (f *Fleet) Route(db string) int { return route(db, len(f.stacks)) }

// Manager returns (creating on first use) the session manager for a
// database on its owning shard.
func (f *Fleet) Manager(db string) (*mvcc.Manager, int, error) {
	shard := f.Route(db)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, shard, ErrClosed
	}
	if m, ok := f.mgrs[shard][db]; ok {
		return m, shard, nil
	}
	m, err := mvcc.NewManager(f.stacks[shard].FS, db, mvcc.Options{
		Mode: mvcc.MVCC, Journal: pager.Off, CacheSize: cacheSize, Pipelined: true, PoolCapacity: readPool,
	})
	if err != nil {
		return nil, shard, err
	}
	m.Register(f.Metrics(), strconv.Itoa(shard))
	f.mgrs[shard][db] = m
	return m, shard, nil
}

// Session is a single-shard transaction handle: a plain mvcc session
// plus the shard's commit gate (held shared for the session's lifetime
// so a cross-shard 2PC window on the same shard excludes it).
type Session struct {
	mvcc.Session
	f        *Fleet
	shard    int
	writer   bool
	released bool
}

// Begin opens a session on a database's owning shard, a writer waiting
// in the FIFO queue however long it takes. Writers hold the shard's
// commit gate shared until Commit or Rollback; readers (snapshots)
// bypass the gate entirely.
func (f *Fleet) Begin(db string, readonly bool) (*Session, error) {
	s := new(Session)
	if err := f.BeginInto(s, db, readonly, mvcc.Unbounded); err != nil {
		return nil, err
	}
	return s, nil
}

// BeginInto is Begin into a session the caller owns (new or ended; see
// mvcc.Manager.BeginInto), with a busy budget passed unchanged to the
// session manager (mvcc.Manager.BeginInto: Unbounded queues, 0 is an
// immediate ErrBusy). The serving tier runs each connection's autocommit
// requests on one such session and propagates request deadlines as the
// budget.
func (f *Fleet) BeginInto(s *Session, db string, readonly bool, budget time.Duration) error {
	m, shard, err := f.Manager(db)
	if err != nil {
		return err
	}
	writer := !readonly
	if writer {
		f.gates[shard].RLock()
	}
	// Released until the session is open: a failed begin holds no gate.
	s.f, s.shard, s.writer, s.released = f, shard, writer, true
	if err := m.BeginInto(&s.Session, readonly, budget); err != nil {
		if writer {
			f.gates[shard].RUnlock()
		}
		return err
	}
	s.released = false
	return nil
}

func (s *Session) release() {
	if s.writer && !s.released {
		s.released = true
		s.f.gates[s.shard].RUnlock()
	}
}

// Commit ends the session, releasing the shard gate.
func (s *Session) Commit() error {
	err := s.Session.Commit()
	s.release()
	return err
}

// Rollback ends the session, releasing the shard gate.
func (s *Session) Rollback() error {
	err := s.Session.Rollback()
	s.release()
	return err
}

// SetCrashHook installs (or clears, with nil) the torture-test hook
// consulted at named points inside Tx.Commit. Returning true power-cuts
// the entire fleet at that point. Stages, in order: "prepared:<shard>"
// after each participant's phase one, "decision-logged" after the
// coordinator record is durable on shard 0, "committed:<shard>" after
// each participant's phase two.
func (f *Fleet) SetCrashHook(hook func(stage string) bool) { f.crashHook = hook }

func (f *Fleet) crash(stage string) bool {
	if f.crashHook != nil && f.crashHook(stage) {
		f.PowerCut()
		return true
	}
	return false
}

// PowerCut simulates simultaneous power loss on every member. Open
// sessions and managers die with the volatile state; Remount recovers.
func (f *Fleet) PowerCut() {
	f.mu.Lock()
	// Managers hold sqlite connections whose caches died with power;
	// drop them without Close (closing would touch the dead stacks) and
	// let Manager() rebuild on demand after Remount.
	for i := range f.mgrs {
		f.mgrs[i] = make(map[string]*mvcc.Manager)
	}
	f.mu.Unlock()
	for _, st := range f.stacks {
		st.PowerCut()
	}
}

// Remount recovers the fleet after a power cut: every member runs
// device firmware recovery and file-system replay, then in-doubt 2PC
// participants are resolved against the coordinator record on shard 0 —
// committed if the record names them, aborted otherwise (presumed
// abort). Managers are rebuilt lazily on next use, which runs
// SQLite-level recovery per database.
func (f *Fleet) Remount() error {
	for i, st := range f.stacks {
		if err := st.Remount(); err != nil {
			return fmt.Errorf("shard %d: remount: %w", i, err)
		}
	}
	decided, maxGtid, err := f.coord.replay()
	if err != nil {
		return fmt.Errorf("coordinator log replay: %w", err)
	}
	f.mu.Lock()
	if f.nextGtid <= maxGtid {
		f.nextGtid = maxGtid + 1
	}
	f.mu.Unlock()
	for shardID, st := range f.stacks {
		for _, tid := range st.FS.InDoubt() {
			commit := decided[participantKey{shardID, tid}]
			if err := st.FS.ResolveInDoubt(tid, commit); err != nil {
				return fmt.Errorf("shard %d tid %d: resolve: %w", shardID, tid, err)
			}
			f.Resolved.Add(1)
		}
	}
	return nil
}

// InDoubt reports unresolved prepared participant transactions per
// shard (shard id → tids). After a successful Remount it is empty.
func (f *Fleet) InDoubt() map[int][]uint64 {
	out := make(map[int][]uint64)
	for i, st := range f.stacks {
		if ids := st.FS.InDoubt(); len(ids) > 0 {
			out[i] = ids
		}
	}
	return out
}

// Metrics is the registry every layer of the fleet publishes into:
// the members' stacks (told apart by their shard label), each session
// manager as it opens, and the fleet's own 2PC counters and stage
// timing.
func (f *Fleet) Metrics() *metrics.Registry { return f.stacks[0].Gauges }

func (f *Fleet) register(reg *metrics.Registry) {
	reg.Counter("xftl_cross_tx_total", "Cross-shard transactions committed.", f.CrossTx.Load)
	reg.Counter("xftl_cross_aborts_total", "Cross-shard transactions aborted.", f.CrossAborts.Load)
	reg.Counter("xftl_indoubt_resolved_total", "In-doubt 2PC participants resolved at remount.", f.Resolved.Load)
	const help = "Wall time of cross-shard two-phase-commit stages."
	reg.Histogram("xftl_2pc_stage_duration_seconds", help, &f.PrepareLat, "stage", "prepare")
	reg.Histogram("xftl_2pc_stage_duration_seconds", help, &f.DecideLat, "stage", "decide")
	reg.Histogram("xftl_2pc_stage_duration_seconds", help, &f.CommitLat, "stage", "commit")
}

// Close shuts the fleet down: managers close first (draining their
// writer queues), then every member stack closes concurrently. Closing
// one member can never wedge another — each drain touches only its own
// queue mutex and clock — and late submissions to a closed member fail
// fast with ncq.ErrQueueClosed.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	mgrs := f.mgrs
	f.mgrs = make([]map[string]*mvcc.Manager, len(f.stacks))
	for i := range f.mgrs {
		f.mgrs[i] = make(map[string]*mvcc.Manager)
	}
	f.mu.Unlock()
	var firstErr error
	for _, byDB := range mgrs {
		names := make([]string, 0, len(byDB))
		for name := range byDB {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := byDB[name].Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	// Members close concurrently: each queue drain touches only its own
	// member's mutex and clock.
	errs := make([]error, len(f.stacks))
	var wg sync.WaitGroup
	for i, st := range f.stacks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = st.Close()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// openDBs resolves a transaction's database set into per-shard
// participant groups, sorted by (shard, name) — the global lock order
// that keeps concurrent cross-shard transactions deadlock-free.
func (f *Fleet) partition(dbs []string) []*part {
	byShard := make(map[int][]string)
	for _, db := range dbs {
		byShard[f.Route(db)] = append(byShard[f.Route(db)], db)
	}
	shards := make([]int, 0, len(byShard))
	for s := range byShard {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	parts := make([]*part, 0, len(shards))
	for _, s := range shards {
		names := byShard[s]
		sort.Strings(names)
		parts = append(parts, &part{shard: s, dbs: names})
	}
	return parts
}
