// Package mvcc layers a multi-version session manager on top of the
// X-FTL stack. It reproduces the concurrency model the paper argues
// X-FTL enables (§5): because the FTL keeps the last committed version
// of every page addressable, a reader can pin the committed X-L2P
// version set at BEGIN time and keep reading those physical pages while
// a writer's copy-on-write pages land next to them. Readers therefore
// never block on the writer and never see a partially committed state.
//
// Writers keep SQLite's locking model: at most one write transaction at
// a time, queued FIFO, or — for SQLITE_BUSY-style abort-on-conflict
// callers — polled within a busy budget that ends in ErrBusy. Queued
// writers commit in groups: one that reaches Commit with a successor
// already holding a ticket leaves its pages with the file system, hands
// the ticket on and waits, and the last of them commits the whole group
// with one fsync — one commit(t) — before any member is acknowledged.
//
// The same API also runs in a Serialized mode that models the baseline
// the paper compares against: a single rollback-journal connection
// where every transaction — read or write — takes the one database
// lock. The serving tier runs it for rollback-journal stacks.
package mvcc

import (
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

// Mode selects the concurrency model.
type Mode int

const (
	// MVCC runs readers on X-FTL snapshots (journal mode Off) with a
	// FIFO-queued single writer. Requires a transactional device.
	MVCC Mode = iota
	// Serialized models the rollback-journal baseline: one connection,
	// one lock, every transaction exclusive.
	Serialized
)

func (m Mode) String() string {
	if m == MVCC {
		return "mvcc"
	}
	return "serialized"
}

// Options configures a Manager.
type Options struct {
	Mode Mode
	// Journal is the writer's journal mode. MVCC requires pager.Off;
	// Serialized typically uses pager.Rollback.
	Journal pager.JournalMode
	// CacheSize is the pager cache per connection (0 = default).
	CacheSize int
	// Pipelined routes snapshot page reads through the async NCQ
	// submission path so concurrent readers overlap in virtual time
	// across channels, and queues the writer's commit-time page writes
	// the same way behind the commit(t) that fences them. Both are still
	// synchronous from the caller's point of view; the writer's reads
	// always wait.
	Pipelined bool
	// PoolCapacity enables the warm reader pool in MVCC mode: finished
	// read sessions park their snapshot connection (pager cache and
	// catalog intact) for reuse by the next reader, advanced past the
	// commits in between, up to this many idle connections. Zero disables
	// pooling.
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
	cfg  sqlite.Config

	// db is the single persistent writer connection (and, in
	// Serialized mode, the only connection).
	db *sqlite.DB

	// pool keeps warm reader connections between MVCC read sessions.
	// Nil unless Options.PoolCapacity enabled it.
	pool *readpool.Pool

	// FIFO ticket lock for the writer queue. head/tail are guarded by
	// mu; a writer holds the lock while head != its ticket.
	mu     sync.Mutex
	cond   *sync.Cond
	head   uint64
	tail   uint64
	closed bool

	// Group commit (MVCC mode), under mu. waiters are the sessions whose
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
	if opts.Mode == MVCC && opts.Journal != pager.Off {
		return nil, fmt.Errorf("mvcc: MVCC mode requires journal mode Off, got %v", opts.Journal)
	}
	cfg := sqlite.Config{Mode: opts.Journal, CacheSize: opts.CacheSize}
	db, err := sqlite.Open(fsys, name, cfg)
	if err != nil {
		return nil, err
	}
	m := &Manager{fs: fsys, name: name, opts: opts, cfg: cfg, db: db}
	m.cond = sync.NewCond(&m.mu)
	if opts.Mode == MVCC {
		db.Pager().OnGroupSync = m.groupSynced
	}
	if opts.Mode == MVCC && opts.PoolCapacity > 0 {
		m.pool = readpool.New(opts.PoolCapacity)
	}
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
	if m.pool != nil {
		m.pool.Close()
	}
	return m.db.Close()
}

// Mode reports the configured concurrency model.
func (m *Manager) Mode() Mode { return m.opts.Mode }

// Session is one transaction-scoped handle. Read sessions in MVCC mode
// own a private read-only connection; write sessions (and everything in
// Serialized mode) borrow the shared connection under the lock.
type Session struct {
	m        *Manager
	db       *sqlite.DB
	readonly bool
	done     bool

	// A private reader connection: snap is the snapshot its page reads go
	// through, and its I/O context (nil for a session on the shared
	// connection, whose I/O context is the file system's writer side); pc
	// is its pool membership, if pooled.
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
	if s.snap != nil {
		s.snap.SetIOReq(req)
	} else {
		s.m.fs.SetIOReq(req)
	}
}

// Unbounded is the busy budget of a writer that takes a FIFO ticket and
// waits for its turn however long that takes.
const Unbounded time.Duration = -1

// Begin starts a session, blocking writers until the queue drains.
// Readers in MVCC mode never block: they pin a snapshot and return
// immediately even while a write transaction is in flight.
func (m *Manager) Begin(readonly bool) (*Session, error) {
	return m.BeginWith(readonly, Unbounded)
}

// BeginWith is Begin for a caller with a busy budget, the
// sqlite3_busy_timeout analogue: a writer that finds the database locked
// polls the lock with exponential virtual-time backoff until it either
// acquires it or has burned the budget, and only then returns ErrBusy
// (wrapped, so errors.Is still matches); a zero budget is SQLite's
// immediate BUSY. A polling writer never jumps the FIFO queue. The
// elapsed budget is measured on the device's virtual clock, so
// concurrent sessions' own charges count against it exactly as wall
// time would against a real busy_timeout. Unbounded queues instead, as
// Begin does. Readers in MVCC mode never block and ignore the budget.
func (m *Manager) BeginWith(readonly bool, budget time.Duration) (*Session, error) {
	s := new(Session)
	if err := m.BeginInto(s, readonly, budget); err != nil {
		return nil, err
	}
	return s, nil
}

// BeginInto is BeginWith into a session the caller owns, so a caller
// that runs one session after another allocates none: s must be new or
// ended, and everything it held is overwritten. On error s is left
// ended.
func (m *Manager) BeginInto(s *Session, readonly bool, budget time.Duration) error {
	*s = Session{m: m, db: m.db, readonly: readonly, done: true}
	if readonly && m.opts.Mode == MVCC {
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
	if !readonly {
		if err := m.db.Begin(); err != nil {
			m.fs.ClearIOContext()
			m.unlockExclusive()
			return err
		}
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
// pool's warmest — advanced past the commits that landed since it was
// parked, if any — or a cold one opened over a fresh snapshot.
func (m *Manager) openReader(s *Session) error {
	// A reader must see every commit that has returned, so the sequence is
	// read before the checkout. A commit landing in between leaves the
	// checkout one commit behind, exactly as if the reader had come a
	// moment earlier.
	var seq uint64
	if m.pool != nil {
		seq = m.fs.Device().CommitSeq()
		s.pc = m.pool.Checkout(seq, m.fs.Epoch(), m.fs.AdvanceFloor())
	}
	if s.pc != nil && s.pc.Snap.Seq() >= seq {
		s.db, s.snap = s.pc.DB, s.pc.Snap
		s.snap.SetIOContext(s.id, m.opts.Pipelined)
		return nil
	}
	snap, err := m.fs.OpenSnapshot()
	if err != nil {
		if s.pc != nil {
			m.pool.Return(s.pc)
		}
		return err
	}
	snap.SetIOContext(s.id, m.opts.Pipelined)
	s.snap = snap
	if s.pc != nil && m.pool.Advance(s.pc, m.fs, snap) {
		s.db = s.pc.DB
		return nil
	}
	s.pc = nil
	// The cold open's catalog reads are the session's own I/O.
	if s.db, err = sqlite.OpenReader(m.fs, m.name, snap, m.cfg); err != nil {
		_ = snap.Close()
		return err
	}
	if m.pool != nil {
		s.pc = readpool.NewConn(s.db, snap)
	}
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
// pager.ErrReadOnly (MVCC mode) before touching any state.
func (s *Session) Exec(sql string, args ...any) (int64, error) {
	if s.done {
		return 0, ErrSessionDone
	}
	if s.snap != nil {
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

// endReader finishes a session that owns a private reader connection:
// a pooled reader parks it warm for the next reader (the pool closes it
// instead once the change log can no longer advance it); any other tears the
// connection down, then closes its snapshot so GC can reclaim the
// versions it pinned.
func (s *Session) endReader() error {
	var err error
	if s.pc != nil {
		s.m.pool.Return(s.pc)
	} else {
		err = s.db.Close()
		if cerr := s.snap.Close(); err == nil {
			err = cerr
		}
	}
	s.m.Stats.SnapsOpen.Add(-1)
	return err
}

// How a session ends: its writer transaction commits, rolls back, or was
// already finished by someone else.
const (
	endCommit = iota
	endRollback
	endExternal
)

// end finishes the session exactly once: a private reader connection is
// parked or torn down; a session on the shared connection ends its
// writer transaction as told, then gives up the I/O context and the
// lock.
func (s *Session) end(how int) error {
	if s.done {
		return ErrSessionDone
	}
	s.done = true
	var (
		err      error
		deferred bool
	)
	switch {
	case s.snap != nil:
		err = s.endReader()
	case s.readonly:
	case how == endCommit && s.m.opts.Mode == MVCC && !s.solo && s.m.successorInGroup():
		// The successor's commit carries this one; a failed commit of
		// either kind leaves the shared connection rolled back and
		// reusable by the next queued writer.
		deferred, err = s.db.CommitDeferred()
	case how == endCommit:
		err = s.db.Commit()
	case how == endRollback:
		err = s.db.Rollback()
	}
	if s.readonly {
		s.m.Stats.ReadTx.Add(1)
		s.noteSession(0)
	} else {
		s.m.Stats.WriteTx.Add(1)
		s.noteSession(1)
	}
	if s.snap == nil {
		s.m.fs.ClearIOContext()
		if deferred {
			err = s.m.awaitGroup(s)
		} else {
			s.m.unlockExclusive()
		}
	}
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
// no-op for readers and outside MVCC mode.
func (s *Session) Solo() error {
	if s.done {
		return ErrSessionDone
	}
	if s.snap != nil || s.m.opts.Mode != MVCC {
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

// PoolStats copies the warm reader pool's counters. ok is false when
// pooling is disabled.
func (m *Manager) PoolStats() (st readpool.Stats, ok bool) {
	if m.pool == nil {
		return readpool.Stats{}, false
	}
	return m.pool.Stats(), true
}

// Register publishes the manager's session-layer counters as metric
// families labelled with the given shard and the manager's database:
// writer-lock busy timeouts, group commits and their members, the reader
// pool when pooling is on, and WAL checkpoint activity when the writer
// journals through the log.
func (m *Manager) Register(reg *metrics.Registry, shard string) {
	kv := []string{"shard", shard, "db", m.name}
	reg.Counter("xftl_busy_timeouts_total", "Sessions that timed out waiting for the writer lock.", m.Stats.BusyTimeouts.Load, kv...)
	reg.Counter("xftl_group_commits_total", "Writer commit(t)s issued, each carrying a group of one or more write transactions.", m.Stats.GroupCommits.Load, kv...)
	reg.Counter("xftl_group_members_total", "Write transactions those commits carried (mean group size = members / commits).", m.Stats.GroupMembers.Load, kv...)
	if m.pool != nil {
		reg.Counter("xftl_readpool_hits_total", "Read sessions served from a warm pooled connection.", func() int64 { return m.pool.Stats().Hits }, kv...)
		reg.Counter("xftl_readpool_misses_total", "Read sessions that had to cold-open.", func() int64 { return m.pool.Stats().Misses }, kv...)
		reg.Counter("xftl_readpool_advances_total", "Warm connections advanced past later commits instead of cold-opened.", func() int64 { return m.pool.Stats().Advances }, kv...)
		reg.Counter("xftl_readpool_evictions_total", "Pooled connections dropped for capacity.", func() int64 { return m.pool.Stats().Evictions }, kv...)
		reg.Counter("xftl_readpool_invalidations_total", "Pooled connections closed because the change log could not advance them (power cut, file resized, or older than the log).", func() int64 { return m.pool.Stats().Invalidations }, kv...)
		reg.Gauge("xftl_readpool_idle", "Warm connections currently pooled.", func() int64 { return int64(m.pool.Idle()) }, kv...)
	}
	if m.opts.Journal == pager.WAL {
		reg.Counter("xftl_wal_checkpoints_total", "WAL checkpoints completed.", m.db.Pager().Checkpoints.Load, kv...)
	}
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
