// Cross-shard transactions: two-phase commit over X-FTL's prepared
// transaction state.
//
// Phase one drives prepare(t) on every participant shard — the page set
// becomes durable but invisible, and the device guarantees a later
// commit. The coordinator then appends a commit record to the log on
// shard 0 (the global commit point) and phase two applies per-shard
// X-FTL commits. Any crash resolves from the record: participants it
// names commit during Fleet.Remount, everything else aborts (presumed
// abort — an unlogged decision is an abort decision).
package shard

import (
	"fmt"
	"time"

	"repro/internal/mvcc"
	"repro/internal/sqlite"
)

// part groups a transaction's databases that live on one shard: one
// mvcc writer session per database, all staged under one device tid at
// prepare time.
type part struct {
	shard    int
	dbs      []string
	sessions []*mvcc.Session
	sqldbs   []*sqlite.DB
	tid      uint64 // device transaction id after prepare (0 = read-only)
}

// Tx is a cross-shard transaction. Statements route to the owning
// shard's session; Commit runs two-phase commit across the parts.
type Tx struct {
	f     *Fleet
	gtid  uint64
	parts []*part
	bySh  map[string]*mvcc.Session
	done  bool
}

// BeginCross opens a transaction that may span shards. The database
// set is fixed at begin: gates and writer tickets are acquired in
// ascending (shard, name) order, the global order that keeps concurrent
// cross-shard transactions deadlock-free.
func (f *Fleet) BeginCross(dbs ...string) (*Tx, error) {
	if len(dbs) == 0 {
		return nil, fmt.Errorf("shard: BeginCross needs at least one database")
	}
	seen := make(map[string]bool, len(dbs))
	uniq := dbs[:0:0]
	for _, db := range dbs {
		if !seen[db] {
			seen[db] = true
			uniq = append(uniq, db)
		}
	}
	parts := f.partition(uniq)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	gtid := f.nextGtid
	f.nextGtid++
	f.mu.Unlock()

	tx := &Tx{f: f, gtid: gtid, parts: parts, bySh: make(map[string]*mvcc.Session, len(uniq))}
	// Exclusive shard gates for the whole transaction: no other commit
	// point on a participating shard can interleave with the prepare
	// window, which the file-system prepared-image capture relies on.
	for _, p := range parts {
		f.gates[p.shard].Lock()
	}
	for _, p := range parts {
		for _, db := range p.dbs {
			m, _, err := f.Manager(db)
			var s *mvcc.Session
			if err == nil {
				s, err = m.Begin(false)
			}
			if err != nil {
				tx.abort()
				tx.releaseGates()
				tx.done = true
				return nil, err
			}
			p.sessions = append(p.sessions, s)
			p.sqldbs = append(p.sqldbs, s.DB())
			tx.bySh[db] = s
		}
	}
	return tx, nil
}

func (t *Tx) session(db string) (*mvcc.Session, error) {
	s, ok := t.bySh[db]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDB, db)
	}
	return s, nil
}

// Exec runs a write statement against the named database's shard.
func (t *Tx) Exec(db, sql string, args ...any) (int64, error) {
	if t.done {
		return 0, ErrTxDone
	}
	s, err := t.session(db)
	if err != nil {
		return 0, err
	}
	return s.Exec(sql, args...)
}

// Query runs a SELECT against the named database's shard, inside the
// transaction's view.
func (t *Tx) Query(db, sql string, args ...any) (*sqlite.Rows, error) {
	if t.done {
		return nil, ErrTxDone
	}
	s, err := t.session(db)
	if err != nil {
		return nil, err
	}
	return s.Query(sql, args...)
}

// releaseGates unlocks the participating shard gates (reverse order,
// cosmetic — release order cannot deadlock).
func (t *Tx) releaseGates() {
	for i := len(t.parts) - 1; i >= 0; i-- {
		t.f.gates[t.parts[i].shard].Unlock()
	}
}

// releaseSessions ends every mvcc session once its transaction is over.
// Every ending of the 2PC engine settles the transactions themselves —
// committed, or rolled back by the one rewind — so a session only has its
// writer ticket and its stats left to hand in.
func (t *Tx) releaseSessions() {
	for _, p := range t.parts {
		for _, s := range p.sessions {
			_ = s.FinishExternal()
		}
		p.sessions = nil
	}
}

// Commit runs two-phase commit. On return the transaction is finished:
// either every participant committed (nil error) or none did. A power
// cut mid-protocol (including one injected by the crash hook) leaves
// recovery to Fleet.Remount, which resolves in-doubt participants from
// the coordinator record.
func (t *Tx) Commit() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	defer t.releaseGates()

	// Single-shard fast path: the group commits atomically under one
	// device tid with a plain commit — no coordinator record needed.
	if len(t.parts) == 1 {
		p := t.parts[0]
		err := sqlite.CommitAtomic(p.sqldbs...)
		t.releaseSessions()
		if err != nil {
			return err
		}
		t.f.CrossTx.Add(1)
		return nil
	}

	// Phase one: prepare every part, ascending shard order.
	stage := time.Now()
	for _, p := range t.parts {
		tid, err := sqlite.PrepareAtomic(p.sqldbs...)
		if err != nil {
			t.abort()
			t.f.CrossAborts.Add(1)
			return fmt.Errorf("shard %d: prepare: %w", p.shard, err)
		}
		p.tid = tid
		if t.f.crash(fmt.Sprintf("prepared:%d", p.shard)) {
			return fmt.Errorf("%w (after prepare of shard %d)", ErrCrashPoint, p.shard)
		}
	}
	t.f.PrepareLat.Observe(time.Since(stage))

	// Decision: the commit record on shard 0 is the global commit point.
	// Read-only participants (tid 0) have nothing to resolve and are
	// omitted; if every part is read-only the record itself is skipped.
	var named []participantKey
	for _, p := range t.parts {
		if p.tid != 0 {
			named = append(named, participantKey{p.shard, p.tid})
		}
	}
	if len(named) > 0 {
		stage = time.Now()
		if err := t.f.coord.append(t.gtid, named); err != nil {
			t.abort()
			t.f.CrossAborts.Add(1)
			return fmt.Errorf("coordinator record: %w", err)
		}
		t.f.DecideLat.Observe(time.Since(stage))
		if t.f.crash("decision-logged") {
			return fmt.Errorf("%w (after decision log)", ErrCrashPoint)
		}
	}

	// Phase two: apply the decision everywhere. Failures here cannot
	// revoke the decision — the record is durable — so errors surface
	// but the fleet converges on commit at the next Remount.
	var firstErr error
	stage = time.Now()
	for _, p := range t.parts {
		if err := sqlite.FinishPrepared(true, p.sqldbs...); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: commit: %w", p.shard, err)
		}
		if t.f.crash(fmt.Sprintf("committed:%d", p.shard)) {
			return fmt.Errorf("%w (after commit of shard %d)", ErrCrashPoint, p.shard)
		}
	}
	t.f.CommitLat.Observe(time.Since(stage))
	t.releaseSessions()
	if firstErr != nil {
		return firstErr
	}
	t.f.CrossTx.Add(1)
	return nil
}

// abort takes the transaction back on every shard, whatever each part
// has reached: a prepared part durably retracts its prepare, an open one
// rolls back, one whose prepare failed is rolled back already. Secondary
// errors are swallowed — the caller already has the primary cause, and
// Remount re-resolves anything left in doubt.
func (t *Tx) abort() {
	for _, p := range t.parts {
		_ = sqlite.FinishPrepared(false, p.sqldbs...)
	}
	t.releaseSessions()
}

// Rollback aborts the whole transaction on every shard.
func (t *Tx) Rollback() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	defer t.releaseGates()
	t.abort()
	t.f.CrossAborts.Add(1)
	return nil
}
