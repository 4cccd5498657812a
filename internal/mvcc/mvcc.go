// Package mvcc layers a multi-version session manager on top of the
// X-FTL stack. It reproduces the concurrency model the paper argues
// X-FTL enables (§5): because the FTL keeps the last committed version
// of every page addressable, a reader can pin the committed X-L2P
// version set at BEGIN time and keep reading those physical pages while
// a writer's copy-on-write pages land next to them. Readers therefore
// never block on the writer and never see a partially committed state.
//
// The database's connections share one page cache, a pager.Table of
// PoolCapacity × CacheSize frames, each one committed page version valid
// over a range of commit sequences: readers read it at their snapshot's
// sequence and have no cache of their own, and the writer keeps a
// private CacheSize-page cache that trades clean committed pages with it
// and publishes what each commit wrote.
//
// Writers keep SQLite's locking model: at most one write transaction at
// a time, queued FIFO, or — for SQLITE_BUSY-style abort-on-conflict
// callers — polled within a busy budget that ends in ErrBusy. Queued
// writers commit in groups: one that reaches Commit with a successor
// already holding a ticket leaves its pages with the file system, hands
// the ticket on and waits, and the last of them commits the whole group
// with one fsync — one commit(t) — before any member is acknowledged.
package mvcc

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/readpool"
	"repro/internal/simfs"
	"repro/internal/sqlite"
	"repro/internal/sqlite/pager"
	"repro/internal/trace"
)

var (
	// ErrBusy is the SQLITE_BUSY analogue: a non-blocking write-begin
	// found another write transaction active or queued.
	ErrBusy = errors.New("mvcc: database is locked")
	// ErrClosed is returned once the manager has been shut down.
	ErrClosed = errors.New("mvcc: manager closed")
	// ErrSessionDone guards against use-after-end of a session.
	ErrSessionDone = errors.New("mvcc: session already ended")
)

// Mode names the concurrency model. MVCC is the only one.
type Mode int

// MVCC runs readers on X-FTL snapshots (journal mode Off) with a
// FIFO-queued single writer. Requires a transactional device.
const MVCC Mode = 0

// Options configures a Manager.
type Options struct {
	// Mode must be MVCC.
	Mode Mode
	// Journal is the writer's journal mode and must be pager.Off: the
	// X-FTL device, not a journal, makes the writer's pages atomic.
	Journal pager.JournalMode
	// CacheSize is the writer's private page cache (0 = the pager's
	// default), and PoolCapacity × CacheSize the database's shared one,
	// which every reader reads through and the writer trades with.
	CacheSize int
	// Pipelined routes snapshot page reads through the async NCQ
	// submission path so concurrent readers overlap in virtual time
	// across channels, and queues the writer's commit-time page writes
	// the same way behind the commit(t) that fences them. Both are still
	// synchronous from the caller's point of view; the writer's reads
	// always wait.
	Pipelined bool
	// PoolCapacity sizes the warm reader pool every read session goes
	// through (0: 8): finished read sessions park their snapshot
	// connection (catalog and compiled statements intact) for reuse by
	// the next reader, re-seated past the commits in between, up to this
	// many idle connections. It also sizes the shared page cache:
	// PoolCapacity × CacheSize frames.
	PoolCapacity int
}

// Stats are cumulative session-layer counters.
type Stats struct {
	ReadTx       atomic.Int64 // read sessions ended
	WriteTx      atomic.Int64 // write sessions ended
	WriterWaits  atomic.Int64 // write-begins that queued behind another writer
	SnapsOpen    atomic.Int64 // currently open reader snapshots
	BusyRetries  atomic.Int64 // budgeted write-begin lock polls that found the db busy
	BusyTimeouts atomic.Int64 // busy budgets that expired into ErrBusy
	GroupCommits atomic.Int64 // MVCC writer commit(t)s issued, whatever their outcome
	GroupMembers atomic.Int64 // write transactions those carried (mean group size = the ratio)
}

// Manager owns one database file and hands out sessions.
type Manager struct {
	fs   *simfs.FS
	name string
	opts Options

	// db is the single persistent writer connection.
	db *sqlite.DB

	// pool keeps warm reader connections between read sessions; every
	// reader's connection is one of its own. frames is the page cache they
	// read through and the writer trades with.
	pool   *readpool.Pool
	frames *pager.Table

	// FIFO ticket lock for the writer queue. head/tail are guarded by
	// mu; a writer holds the lock while head != its ticket.
	mu     sync.Mutex
	cond   *sync.Cond
	head   uint64
	tail   uint64
	closed bool

	// Group commit, under mu. waiters are the sessions whose
	// commit was deferred and awaits the group's fsync; groupEnd is the
	// first ticket outside the open group — the tickets outstanding when
	// its first member reached Commit — so a group is bounded however many
	// writers keep arriving; waking counts the members acknowledged and
	// not yet out of awaitGroup (see successorInGroup).
	waiters  []*Session
	groupEnd uint64
	waking   int

	Stats Stats

	// nextSess hands out session identities; id 0 means "unattributed"
	// in traces, so the counter starts at 1.
	nextSess atomic.Uint64
}

// NewManager opens (or creates) the database and runs the journal-mode
// recovery protocol once on the shared writer connection.
func NewManager(fsys *simfs.FS, name string, opts Options) (*Manager, error) {
	if opts.Mode != MVCC {
		return nil, fmt.Errorf("mvcc: unknown session mode %d", opts.Mode)
	}
	if opts.Journal != pager.Off {
		return nil, fmt.Errorf("mvcc: MVCC mode requires journal mode Off, got %v", opts.Journal)
	}
	db, err := sqlite.Open(fsys, name, sqlite.Config{Mode: opts.Journal, CacheSize: opts.CacheSize})
	if err != nil {
		return nil, err
	}
	capacity := cmp.Or(max(opts.PoolCapacity, 0), 8)
	m := &Manager{fs: fsys, name: name, opts: opts, db: db,
		pool: readpool.New(capacity), frames: pager.NewTable(fsys, capacity*db.Pager().CacheSize())}
	m.cond = sync.NewCond(&m.mu)
	db.Pager().OnGroupSync = m.groupSynced
	db.Pager().Share(m.frames)
	return m, nil
}

// Close shuts the manager down. Outstanding sessions must have ended.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	// Drain the reader pool while the device is still serviceable:
	// pooled connections hold open device snapshots.
	m.pool.Close()
	return m.db.Close()
}

// Session is one transaction-scoped handle. Read sessions own a private
// read-only connection; write sessions borrow the shared connection
// under the lock.
type Session struct {
	m        *Manager
	db       *sqlite.DB
	readonly bool
	done     bool

	// A reader's private connection: snap is the snapshot its page reads
	// go through, and its I/O context (nil for a writer, whose I/O context
	// is the file system's writer side); pc is its pool membership.
	snap *simfs.Snapshot
	pc   *readpool.Conn

	id      uint64        // trace identity
	trStart time.Duration // virtual time of Begin, for the KSession span

	// Group commit. solo keeps the session out of it (see Solo); acked and
	// ackErr, under Manager.mu, are a deferred commit's outcome.
	solo   bool
	acked  bool
	ackErr error
}

// ID reports the session's identity — the id its trace events and
// device commands are tagged with.
func (s *Session) ID() uint64 { return s.id }

// SetReq tags all I/O the session issues from here on with a
// serving-tier request id (0 clears it): readers tag their snapshot,
// writers tag the shared writer context they hold for the session's
// lifetime. The tag flows into every ncq.Request and trace event the
// I/O produces, linking device work back to the server request that
// caused it.
func (s *Session) SetReq(req uint64) {
	if s.readonly {
		s.snap.SetIOReq(req)
	} else {
		s.m.fs.SetIOReq(req)
	}
}

// Unbounded is the busy budget of a writer that takes a FIFO ticket and
// waits for its turn however long that takes.
const Unbounded time.Duration = -1

// Begin starts a session, blocking writers until the queue drains.
// Readers never block: they pin a snapshot and return immediately even
// while a write transaction is in flight.
func (m *Manager) Begin(readonly bool) (*Session, error) {
	s := new(Session)
	if err := m.BeginInto(s, readonly, Unbounded); err != nil {
		return nil, err
	}
	return s, nil
}

// BeginInto is Begin into a session the caller owns, so a caller that
// runs one session after another allocates none (s must be new or ended,
// and everything it held is overwritten; on error s is left ended), with
// a busy budget, the sqlite3_busy_timeout analogue: a writer that finds
// the database locked polls the lock with exponential virtual-time
// backoff until it either acquires it or has burned the budget, and only
// then returns ErrBusy (wrapped, so errors.Is still matches); a zero
// budget is SQLite's immediate BUSY. A polling writer never jumps the
// FIFO queue. The elapsed budget is measured on the device's virtual
// clock, so concurrent sessions' own charges count against it exactly as
// wall time would against a real busy_timeout. Unbounded queues instead,
// as Begin does. Readers never block and ignore the budget.
func (m *Manager) BeginInto(s *Session, readonly bool, budget time.Duration) error {
	*s = Session{m: m, db: m.db, readonly: readonly, done: true}
	if readonly {
		// A snapshot of the committed state to read beside the writer, its
		// I/O charged to the session from the first page.
		s.begin()
		if err := m.openReader(s); err != nil {
			return err
		}
		m.Stats.SnapsOpen.Add(1)
		s.done = false
		return nil
	}
	if err := m.lockExclusive(budget); err != nil {
		return err
	}
	// Holding the exclusive lock is what makes setting the shared FS's I/O
	// context safe: exactly one session touches the shared connection at a
	// time.
	s.begin()
	m.fs.SetIOContext(s.id, m.opts.Pipelined)
	if err := m.db.Begin(); err != nil {
		m.fs.ClearIOContext()
		m.unlockExclusive()
		return err
	}
	s.done = false
	return nil
}

// begin gives the session its identity and the start of its trace span.
func (s *Session) begin() {
	s.id = s.m.nextSess.Add(1)
	s.trStart = s.m.fs.Tracer().Now()
}

// openReader gives a read session its private connection: the reader
// pool's warmest — re-seated over a fresh snapshot if a commit has landed
// since it was parked — or a cold one opened over a fresh snapshot, which
// joins the pool when the session ends.
func (m *Manager) openReader(s *Session) error {
	// A reader must see every commit that has returned, so the sequence is
	// read before the checkout. A commit landing in between leaves the
	// checkout one commit behind, exactly as if the reader had come a
	// moment earlier.
	seq := m.fs.Device().CommitSeq()
	s.pc = m.pool.Checkout(seq, m.fs.Epoch())
	if s.pc != nil && s.pc.Snap != nil {
		s.db, s.snap = s.pc.DB, s.pc.Snap
		s.snap.SetIOContext(s.id, m.opts.Pipelined)
		return nil
	}
	snap, err := m.fs.OpenSnapshot()
	if err != nil {
		if s.pc != nil {
			m.pool.Return(s.pc, seq)
		}
		return err
	}
	snap.SetIOContext(s.id, m.opts.Pipelined)
	s.snap = snap
	if s.pc != nil && m.pool.Reseat(s.pc, snap) {
		s.db = s.pc.DB
		return nil
	}
	// The cold open's catalog reads are the session's own I/O.
	db, err := sqlite.OpenReader(m.fs, m.name, snap, m.frames)
	if err != nil {
		_ = snap.Close()
		return err
	}
	s.db, s.pc = db, &readpool.Conn{DB: db, Snap: snap}
	return nil
}

// Busy-budget backoff bounds: the poll interval starts at the minimum
// and doubles per miss up to the cap, all in virtual time.
const (
	busyBackoffMin = 100 * time.Microsecond
	busyBackoffMax = 10 * time.Millisecond
)

// lockExclusive takes the writer lock: in FIFO ticket order with an
// Unbounded budget, otherwise by polling — which succeeds only when
// nobody holds or waits for the lock — until the budget is burned.
func (m *Manager) lockExclusive(budget time.Duration) error {
	if budget < 0 {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.closed {
			return ErrClosed
		}
		ticket := m.tail
		m.tail++
		if ticket != m.head {
			m.Stats.WriterWaits.Add(1)
		}
		for ticket != m.head {
			m.cond.Wait()
			if m.closed {
				return ErrClosed
			}
		}
		return nil
	}
	clock := m.fs.Device().Clock()
	start := clock.Now()
	backoff := busyBackoffMin
	for {
		m.mu.Lock()
		closed, free := m.closed, m.tail == m.head
		if free && !closed {
			m.tail++
		}
		m.mu.Unlock()
		if closed {
			return ErrClosed
		}
		if free {
			return nil
		}
		m.Stats.BusyRetries.Add(1)
		if clock.Now()-start >= budget {
			m.Stats.BusyTimeouts.Add(1)
			return fmt.Errorf("%w (busy timeout %v expired)", ErrBusy, budget)
		}
		clock.Advance(backoff)
		backoff = min(backoff*2, busyBackoffMax)
	}
}

func (m *Manager) unlockExclusive() {
	m.mu.Lock()
	m.head++
	m.cond.Broadcast()
	m.mu.Unlock()
}

// successorInGroup reports whether the lock holder, about to commit, may
// defer to the next ticket: one is outstanding inside the open group. The
// first member to ask fixes the group's bound; the holder of the last
// ticket inside it gets false and commits the group.
//
// It first waits out the members of the last group still waking up: they
// are callers about to begin again, and whether they have is what the
// answer turns on. The holder's whole transaction has run since they
// were acknowledged, so only a member slower than that is waited for.
func (m *Manager) successorInGroup() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.waking > 0 {
		m.cond.Wait()
	}
	if len(m.waiters) == 0 {
		m.groupEnd = m.tail
	}
	return m.head+1 < m.groupEnd
}

// awaitGroup is unlockExclusive for a session whose commit was deferred:
// it hands the ticket on and returns only once the group's commit(t) has
// — with that commit's outcome. Every way the successor's session can
// end settles the group (Commit fsyncs it or defers onward inside the
// bound, Rollback and Solo fsync it first), so the wait ends. On its way
// out it takes itself off waking — whatever let it out, so the count a
// closer waits on in successorInGroup cannot stay raised.
func (m *Manager) awaitGroup(s *Session) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.waiters = append(m.waiters, s)
	m.head++
	m.cond.Broadcast()
	for !s.acked {
		m.cond.Wait()
	}
	if m.waking--; m.waking == 0 {
		m.cond.Broadcast()
	}
	return s.ackErr
}

// groupSynced is the writer pager's OnGroupSync: a commit(t) carrying
// members transactions ended with err. Every deferred session is in it
// and learns its outcome here; it runs on the goroutine holding the lock.
func (m *Manager) groupSynced(members int, err error) {
	m.Stats.GroupCommits.Add(1)
	m.Stats.GroupMembers.Add(int64(members))
	m.mu.Lock()
	m.waking += len(m.waiters)
	for _, s := range m.waiters {
		s.acked, s.ackErr = true, err
	}
	m.waiters = m.waiters[:0]
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Query runs a SELECT in the session's view of the database.
func (s *Session) Query(sql string, args ...any) (*sqlite.Rows, error) {
	if s.done {
		return nil, ErrSessionDone
	}
	return s.db.Query(sql, args...)
}

// QueryRow returns the first row of a SELECT.
func (s *Session) QueryRow(sql string, args ...any) ([]sqlite.Value, bool, error) {
	if s.done {
		return nil, false, ErrSessionDone
	}
	return s.db.QueryRow(sql, args...)
}

// Exec runs a write statement. Read sessions fail with
// pager.ErrReadOnly before touching any state.
func (s *Session) Exec(sql string, args ...any) (int64, error) {
	if s.done {
		return 0, ErrSessionDone
	}
	if s.readonly {
		return 0, pager.ErrReadOnly
	}
	return s.db.Exec(sql, args...)
}

// Commit ends the session, making a writer's changes durable. For
// readers it simply releases the snapshot (there is nothing to commit).
func (s *Session) Commit() error {
	return s.end(endCommit)
}

// Rollback ends the session, discarding a writer's changes.
func (s *Session) Rollback() error {
	return s.end(endRollback)
}

// endReader hands a read session's private connection back to the pool,
// which parks it warm for the next reader (without its snapshot once a
// commit has overtaken it) or closes it.
func (s *Session) endReader() error {
	s.m.pool.Return(s.pc, s.m.fs.Device().CommitSeq())
	s.m.Stats.SnapsOpen.Add(-1)
	s.m.Stats.ReadTx.Add(1)
	s.noteSession(0)
	return nil
}

// How a session ends: its writer transaction commits, rolls back, or was
// already finished by someone else.
const (
	endCommit = iota
	endRollback
	endExternal
)

// end finishes the session exactly once: a reader's private connection
// is parked or torn down; a writer ends its transaction on the shared
// connection as told, then gives up the I/O context and the lock.
func (s *Session) end(how int) error {
	if s.done {
		return ErrSessionDone
	}
	s.done = true
	if s.readonly {
		return s.endReader()
	}
	var (
		err      error
		deferred bool
	)
	switch {
	case how == endCommit && !s.solo && s.m.successorInGroup():
		// The successor's commit carries this one; a failed commit of
		// either kind leaves the shared connection rolled back and
		// reusable by the next queued writer.
		deferred, err = s.db.CommitDeferred()
	case how == endCommit:
		err = s.db.Commit()
	case how == endRollback:
		err = s.db.Rollback()
	}
	s.m.Stats.WriteTx.Add(1)
	s.noteSession(1)
	s.m.fs.ClearIOContext()
	if deferred {
		return s.m.awaitGroup(s)
	}
	s.m.unlockExclusive()
	return err
}

// Solo takes a writer session out of group commit, for a transaction
// whose ending is not the session's to time: one a coordinator finishes
// (DB), or one that stays open across a remote client's think time. The
// pending group is committed now — its members' acknowledgement must not
// wait on this session, nor their fate ride a tid this session may abort
// or prepare — and the session's own Commit will not defer. If that
// group commit fails the error is returned and this transaction, begun
// on the group's pages, is unwound with it: roll the session back. A
// no-op for readers.
func (s *Session) Solo() error {
	if s.done {
		return ErrSessionDone
	}
	if s.readonly {
		return nil
	}
	s.solo = true
	return s.db.Pager().SyncDeferred()
}

// DB exposes the session's underlying database connection so a
// coordination layer can drive the transaction's ending itself — the
// shard coordinator stages and prepares writer transactions through
// sqlite.PrepareAtomic rather than Session.Commit. The session goes Solo
// first; should that fail, every use of the connection reports the
// unwound transaction. Valid only while the session is open; the caller
// must finish with Commit, Rollback, or FinishExternal exactly once.
func (s *Session) DB() *sqlite.DB {
	_ = s.Solo()
	return s.db
}

// FinishExternal ends a writer session whose transaction was already
// committed or rolled back externally (through sqlite.FinishPrepared
// after a 2PC decision): the session releases its writer ticket and
// records its stats without touching the finished transaction.
func (s *Session) FinishExternal() error {
	return s.end(endExternal)
}

// PoolStats copies the warm reader pool's counters. Every manager pools,
// so ok is always true; the perf suite's counters read both results.
func (m *Manager) PoolStats() (st readpool.Stats, ok bool) {
	return m.pool.Stats(), true
}

// Register publishes the manager's session-layer counters as metric
// families labelled with the given shard and the manager's database:
// writer-lock busy timeouts, group commits and their members, and the
// reader pool.
func (m *Manager) Register(reg *metrics.Registry, shard string) {
	kv := []string{"shard", shard, "db", m.name}
	reg.Counter("xftl_busy_timeouts_total", "Sessions that timed out waiting for the writer lock.", m.Stats.BusyTimeouts.Load, kv...)
	reg.Counter("xftl_group_commits_total", "Writer commit(t)s issued, each carrying a group of one or more write transactions.", m.Stats.GroupCommits.Load, kv...)
	reg.Counter("xftl_group_members_total", "Write transactions those commits carried (mean group size = members / commits).", m.Stats.GroupMembers.Load, kv...)
	reg.Counter("xftl_readpool_hits_total", "Read sessions served by a warm pooled connection, re-seated or not.", func() int64 { return m.pool.Stats().Hits }, kv...)
	reg.Counter("xftl_readpool_misses_total", "Read sessions that had to cold-open.", func() int64 { return m.pool.Stats().Misses }, kv...)
	reg.Counter("xftl_readpool_evictions_total", "Pooled connections dropped for capacity.", func() int64 { return m.pool.Stats().Evictions }, kv...)
	reg.Counter("xftl_readpool_invalidations_total", "Pooled connections closed unable to serve: from before a power cut, or failed at re-seat.", func() int64 { return m.pool.Stats().Invalidations }, kv...)
	reg.Gauge("xftl_readpool_idle", "Warm connections currently pooled.", func() int64 { return int64(m.pool.Idle()) }, kv...)
	reg.Gauge("xftl_readpool_cache_pages", "Page versions resident in the database's shared page cache, out of PoolCapacity × CacheSize frames.", func() int64 { return int64(m.frames.Resident()) }, kv...)
}

// Name reports the database file name this manager owns.
func (m *Manager) Name() string { return m.name }

// noteSession records the session's lifetime span. aux is 1 for a
// write session, 0 for a read session.
func (s *Session) noteSession(aux int64) {
	tr := s.m.fs.Tracer()
	if tr == nil {
		return
	}
	tr.Record(trace.Event{Layer: trace.LSession, Kind: trace.KSession,
		Start: s.trStart, Dur: tr.Now() - s.trStart,
		Aux: aux, Sess: s.id})
}

// Run runs a statement with typed parameters in the session's view of
// the database (sqlite.Stmt.Run): a SELECT into res, which the caller
// owns, or with nil res a write statement, which read sessions refuse as
// Exec does.
func (s *Session) Run(res *sqlite.Result, sql string, params []sqlite.Value) (int64, error) {
	if s.done {
		return 0, ErrSessionDone
	}
	if res == nil && s.readonly {
		return 0, pager.ErrReadOnly
	}
	return s.db.Run(res, sql, params)
}
