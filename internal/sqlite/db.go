package sqlite

import (
	"fmt"
	"strings"

	"repro/internal/simfs"
	"repro/internal/sqlite/btree"
	"repro/internal/sqlite/pager"
	"repro/internal/sqlite/sqlparse"
)

// Config selects how a database is opened: its journal mode (the
// paper's RBJ, WAL and X-FTL/off configurations), page-cache size and
// WAL checkpoint threshold, as the pager takes them.
type Config = pager.Config

// DB is one open database connection (SQLite is serverless; the
// connection IS the engine, §2.1). Not safe for concurrent use:
// SQLite's locking granularity is the whole database file (§6.2).
type DB struct {
	fs   *simfs.FS
	pg   *pager.Pager
	cat  *catalog
	name string

	explicitTx bool
	rngState   uint64

	stmts map[string]*Stmt // Exec, Query and QueryRow's statements, by text (see cached)
}

// Open creates or opens a database file on the file system and runs the
// journal-mode-specific crash recovery.
func Open(fsys *simfs.FS, name string, cfg Config) (*DB, error) {
	p, err := pager.Open(fsys, name, cfg)
	if err != nil {
		return nil, err
	}
	return attach(fsys, name, p)
}

// OpenReader opens a read-only connection over the committed state of
// the database a file-system snapshot pinned — page reads resolve
// through the X-FTL version set pinned at its open — so the connection
// sees that state no matter what a concurrent writer commits afterwards.
// The snapshot stays owned by the caller (close it after closing the
// DB). Any write statement fails with pager.ErrReadOnly.
func OpenReader(fsys *simfs.FS, name string, snap *simfs.Snapshot, cfg Config) (*DB, error) {
	p, err := pager.OpenReader(fsys, name, snap, cfg)
	if err != nil {
		return nil, err
	}
	return attach(fsys, name, p)
}

// Advance moves a read-only connection on to snap, a later snapshot of its
// database at the same size, keeping what the commits in between did not
// change: changed lists the file pages they wrote (simfs.FS.ChangesSince),
// and only those leave the pager cache. Every schema statement writes page
// 1, so only when page 1 is among them does the catalog reload and every
// statement compile again.
func (db *DB) Advance(snap *simfs.Snapshot, changed []int64) error {
	header, err := db.pg.Advance(snap, changed)
	if header && err == nil {
		err = db.cat.reset()
	}
	return err
}

// Reseat moves a read-only connection on to snap, a later snapshot of its
// database that the change log cannot advance it to: the file changed
// size or the namespace changed in between, or the log no longer reaches
// back. The pager cache empties and the header and catalog reload, as at
// a cold open, but the cache's frames and the compiled statements stay.
func (db *DB) Reseat(snap *simfs.Snapshot) error {
	err := db.pg.Reseat(snap)
	if err == nil {
		err = db.cat.reset()
	}
	return err
}

// attach loads the catalog through a freshly opened pager and wraps the
// pair in a connection.
func attach(fsys *simfs.FS, name string, p *pager.Pager) (*DB, error) {
	cat, err := newCatalog(p)
	if err != nil {
		_ = p.Close()
		return nil, err
	}
	return &DB{fs: fsys, pg: p, cat: cat, name: name, rngState: 0x9E3779B97F4A7C15, stmts: map[string]*Stmt{}}, nil
}

// Close releases the connection, rolling back any open transaction.
func (db *DB) Close() error {
	return db.pg.Close()
}

// Pager exposes the pager for instrumentation (checkpoint counts etc.).
func (db *DB) Pager() *pager.Pager { return db.pg }

// TableLeaves walks a table's B-tree leaves in key order, checking the
// tree as it goes (btree.Tree.Leaves).
func (db *DB) TableLeaves(name string, fn func(btree.Leaf) error) error {
	t, err := db.cat.table(name)
	if err != nil {
		return err
	}
	return t.tree.Leaves(fn)
}

// InTx reports whether an explicit transaction is open.
func (db *DB) InTx() bool { return db.explicitTx }

// rand is the deterministic RANDOM() source.
func (db *DB) rand() int64 {
	db.rngState ^= db.rngState << 13
	db.rngState ^= db.rngState >> 7
	db.rngState ^= db.rngState << 17
	return int64(db.rngState)
}

// Begin opens an explicit transaction.
func (db *DB) Begin() error {
	if db.explicitTx {
		return fmt.Errorf("%w: transaction already open", ErrTxState)
	}
	if err := db.pg.Begin(); err != nil {
		return err
	}
	db.explicitTx = true
	return nil
}

// Commit commits the explicit transaction (force-writing all updated
// pages per SQLite's force policy).
func (db *DB) Commit() error {
	if !db.explicitTx {
		return fmt.Errorf("%w: no transaction open", ErrTxState)
	}
	db.explicitTx = false
	return db.failedCommit(db.pg.Commit())
}

// CommitDeferred ends the explicit transaction as a member of a group
// commit (pager.DeferCommit): deferred reports that its durability now
// rides the next Commit on this connection, whose outcome the pager's
// OnGroupSync delivers; otherwise it was committed the ordinary way.
func (db *DB) CommitDeferred() (deferred bool, err error) {
	if !db.explicitTx {
		return false, fmt.Errorf("%w: no transaction open", ErrTxState)
	}
	db.explicitTx = false
	deferred, err = db.pg.DeferCommit()
	return deferred, db.failedCommit(err)
}

// failedCommit leaves the connection rolled back and reusable after a
// commit — or an autocommit statement — that failed with err (nil:
// nothing to do). An Off-mode commit has already rewound the pager, to
// the base of the whole group it carried; whatever is still open rolls
// back here. Either way the catalog reloads from what is now on storage.
func (db *DB) failedCommit(err error) error {
	if err == nil {
		return nil
	}
	if db.pg.InTx() {
		_ = db.pg.Rollback() // err is the one to report
	}
	_ = db.cat.reset()
	return err
}

// Rollback aborts the explicit transaction. In X-FTL mode this is the
// path that reaches the device's abort(t) command via ioctl. A
// transaction the pager already unwound — it read the pages of a commit
// group whose fsync failed under it — only has its catalog reloaded.
func (db *DB) Rollback() error {
	if !db.explicitTx {
		return fmt.Errorf("%w: no transaction open", ErrTxState)
	}
	db.explicitTx = false
	if db.pg.InTx() {
		if err := db.pg.Rollback(); err != nil && db.pg.InTx() {
			return err
		}
	}
	return db.cat.reset()
}

// stmtCacheSize bounds the connection's statement cache. A workload's
// statements are a handful of parameterised texts; one that builds its
// texts from literals fills the cache with statements it never runs again,
// and a full cache is dropped whole.
const stmtCacheSize = 128

// cached is the prepared statement for a text: Exec, Query and QueryRow
// parse and compile what they are handed once per connection. A text that
// does not parse is not remembered.
func (db *DB) cached(sql string) (*Stmt, error) {
	if st, ok := db.stmts[sql]; ok {
		return st, nil
	}
	st, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	if len(db.stmts) >= stmtCacheSize {
		clear(db.stmts)
	}
	db.stmts[sql] = st
	return st, nil
}

// Exec runs one statement that returns no rows, binding positional
// parameters. It returns the number of rows affected.
func (db *DB) Exec(sql string, args ...any) (int64, error) {
	st, err := db.cached(sql)
	if err != nil {
		return 0, err
	}
	return st.Exec(args...)
}

// Run is Stmt.Run on the connection's prepared statement for a text.
func (db *DB) Run(res *Result, sql string, params []Value) (int64, error) {
	st, err := db.cached(sql)
	if err != nil {
		return 0, err
	}
	return st.Run(res, params)
}

// ExecScript runs a semicolon-separated list of statements.
func (db *DB) ExecScript(sql string) error {
	stmts, err := sqlparse.ParseAll(sql)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		if _, err := (&Stmt{db: db, ast: st}).Exec(); err != nil {
			return err
		}
	}
	return nil
}

// Query runs a SELECT and returns the materialized result set.
func (db *DB) Query(sql string, args ...any) (*Rows, error) {
	st, err := db.cached(sql)
	if err != nil {
		return nil, err
	}
	return st.Query(args...)
}

// QueryRow runs a SELECT expected to return one row; ok=false when the
// result is empty.
func (db *DB) QueryRow(sql string, args ...any) ([]Value, bool, error) {
	rows, err := db.Query(sql, args...)
	if err != nil {
		return nil, false, err
	}
	if len(rows.Data) == 0 {
		return nil, false, nil
	}
	return rows.Data[0], true, nil
}

// Stmt is a prepared statement: parsed once, compiled once per schema,
// run many times. It belongs to its connection and, like it, is not safe
// for concurrent use.
type Stmt struct {
	db  *DB
	ast sqlparse.Stmt

	// The compiled form of a SELECT (sel) or an INSERT, UPDATE or DELETE
	// (wr), and the catalog generation it was compiled against; a run under
	// any other generation compiles again first. 0 is no generation.
	gen uint64
	sel *selectPlan
	wr  *writePlan
	// params is the run's bound parameters, overwritten by the next run.
	params []Value
}

// Prepare parses a statement for repeated execution.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, ast: st}, nil
}

// bind converts a run's arguments into the statement's parameters.
func (s *Stmt) bind(args []any) error {
	s.params = s.params[:0]
	for _, a := range args {
		v, err := FromGo(a)
		if err != nil {
			return err
		}
		s.params = append(s.params, v)
	}
	return nil
}

// compile makes the statement's compiled form current: a SELECT, INSERT,
// UPDATE or DELETE never compiled, or compiled before the schema last
// changed — a DDL statement, or a rollback, which replaces every Table —
// is compiled against the catalog as it is now.
func (s *Stmt) compile() error {
	cat := s.db.cat
	if err := cat.fresh(); err != nil {
		return err
	}
	if s.gen == cat.gen {
		return nil
	}
	var err error
	s.gen, s.sel, s.wr = 0, nil, nil
	switch x := s.ast.(type) {
	case *sqlparse.Select:
		s.sel, err = s.db.compileSelect(x)
	case *sqlparse.Insert, *sqlparse.Update, *sqlparse.Delete:
		s.wr, err = s.db.compileWrite(x)
	default:
		err = fmt.Errorf("%w: %T", ErrUnsupported, s.ast)
	}
	if err == nil {
		s.gen = cat.gen
	}
	return err
}

// Run runs the prepared statement with typed parameters: the one entry,
// which Exec binds its arguments for, as Query does for its SELECT half.
// With res, the statement must be a SELECT, and res is refilled with its
// result, the rows carved from res's value room: a result that fits the
// room allocates nothing but its TEXT and BLOB values. It stays valid
// until res is run into again. With nil res the statement runs as Exec
// runs it, and Run returns the number of rows affected.
func (s *Stmt) Run(res *Result, params []Value) (int64, error) {
	if res == nil {
		return s.exec(params)
	}
	return 0, s.query(params, &res.Rows, &res.room)
}

// Exec runs the prepared statement with the given parameters, wrapping it
// in an automatic transaction when no explicit one is open (SQLite
// autocommit).
func (s *Stmt) Exec(args ...any) (int64, error) {
	if err := s.bind(args); err != nil {
		return 0, err
	}
	return s.Run(nil, s.params)
}

func (s *Stmt) exec(params []Value) (int64, error) {
	db := s.db
	switch x := s.ast.(type) {
	case *sqlparse.Begin:
		return 0, db.Begin()
	case *sqlparse.Commit:
		return 0, db.Commit()
	case *sqlparse.Rollback:
		return 0, db.Rollback()
	case *sqlparse.Pragma:
		return 0, db.execPragma(x)
	case *sqlparse.Select:
		// Exec on a SELECT: run it for side-effect-free parity.
		return 0, s.query(params, new(Rows), nil)
	}

	auto := !db.explicitTx
	if auto {
		if err := db.pg.Begin(); err != nil {
			return 0, err
		}
	}
	n, err := s.write(params)
	if err != nil {
		if auto {
			_ = db.failedCommit(err)
		}
		return 0, err
	}
	if auto {
		if err := db.failedCommit(db.pg.Commit()); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// Query runs the prepared SELECT with the given parameters. Each call
// returns a fresh result.
func (s *Stmt) Query(args ...any) (*Rows, error) {
	if err := s.bind(args); err != nil {
		return nil, err
	}
	out := new(Rows)
	if err := s.query(s.params, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// query compiles and runs a SELECT into out, its rows carved from room
// (nil: each row allocated apart).
func (s *Stmt) query(params []Value, out *Rows, room *[]Value) error {
	if _, ok := s.ast.(*sqlparse.Select); !ok {
		return fmt.Errorf("%w: Query requires SELECT", ErrMisuse)
	}
	if err := s.compile(); err != nil {
		return err
	}
	return s.sel.run(params, out, room)
}

// write runs a schema change, or compiles and runs an INSERT, UPDATE or
// DELETE, inside the transaction Exec opened or found open.
func (s *Stmt) write(params []Value) (int64, error) {
	cat := s.db.cat
	switch x := s.ast.(type) {
	case *sqlparse.CreateTable, *sqlparse.CreateIndex, *sqlparse.DropTable, *sqlparse.DropIndex:
		if err := cat.fresh(); err != nil {
			return 0, err
		}
		return 0, cat.define(x)
	}
	if err := s.compile(); err != nil {
		return 0, err
	}
	s.wr.ctx.params = params
	n, err := s.wr.run()
	s.wr.ctx.params = nil
	return n, err
}

// Rows is a fully materialized result set. Columns is shared by every
// result of one statement: read it, do not write to it.
type Rows struct {
	Columns []string
	Data    [][]Value
	one     [1][]Value // Data's room when it is one row
}

// Len reports the number of result rows.
func (r *Rows) Len() int { return len(r.Data) }

// Result is a result set its caller owns and refills run after run
// (Stmt.Run): the Rows, and the one room all their values are carved from.
type Result struct {
	Rows
	room []Value
}

// Clear empties the result and zeroes its room, so a result waiting for
// its next run pins no value; a room of more than keep values is dropped.
func (r *Result) Clear(keep int) {
	room := r.room[:cap(r.room)]
	if len(room) > keep {
		room = nil
	}
	clear(room)
	*r = Result{room: room[:0]}
}

func (db *DB) execPragma(x *sqlparse.Pragma) error {
	switch x.Name {
	case "journal_mode":
		// The mode is fixed at Open (it shapes recovery); accept a
		// matching value, reject a change.
		if x.Value == "" {
			return nil
		}
		want := strings.ToLower(x.Value)
		have := db.pg.Mode().String()
		if want == "delete" {
			want = "rollback"
		}
		if want != have {
			return fmt.Errorf("%w: cannot switch journal_mode from %s to %s after open",
				ErrUnsupported, have, want)
		}
		return nil
	case "wal_checkpoint":
		return db.pg.Checkpoint()
	case "cache_size", "synchronous", "page_size", "temp_store", "locking_mode":
		return nil // accepted for compatibility
	default:
		return nil
	}
}

// CommitAtomic commits open transactions on several databases as one
// atomic unit. This is the multi-file transaction of the paper's §4.3:
// SQLite's rollback mode needs a master journal to approximate it
// ("awkward or incomplete"), while on X-FTL every file's page updates
// simply carry the same transaction id in the X-L2P table and one
// commit(t) makes them all durable together. Requires every database to
// be in Off (X-FTL) mode with an open transaction on the same file
// system. On return no database is in its transaction any more: all
// committed, or — the error says why — all rolled back.
func CommitAtomic(dbs ...*DB) error {
	if len(dbs) == 0 {
		return nil
	}
	if len(dbs) == 1 {
		return dbs[0].Commit()
	}
	lead := dbs[0].pg.File()
	err := stageGroup(dbs)
	tid := lead.TxID()
	if err == nil {
		// One fsync on the lead commits the shared transaction, carrying
		// every file's data (and metadata) atomically.
		err = lead.Fsync()
	}
	settleGroup(dbs, tid, err)
	return err
}

// stageGroup pushes every database's dirty pages to the device under
// one shared transaction id (the staging half of CommitAtomic and
// PrepareAtomic): the lead file's — dbs[0]'s — whose TxID after staging
// is the group's tid (0 if nothing was written).
func stageGroup(dbs []*DB) error {
	for _, db := range dbs {
		if !db.explicitTx {
			return fmt.Errorf("%w: group commit requires an open transaction on every database", ErrTxState)
		}
		if db.pg.Mode() != pager.Off {
			return fmt.Errorf("%w: group commit requires X-FTL (journal mode off)", ErrUnsupported)
		}
		if db.fs != dbs[0].fs {
			return fmt.Errorf("%w: group commit requires one shared file system", ErrMisuse)
		}
	}
	for _, db := range dbs {
		if err := db.pg.Stage(); err != nil {
			return err
		}
	}
	// The first file that has anything to write names the tid; every
	// later one adopts it, and so at last does the lead.
	var tid uint64
	for _, db := range dbs {
		f := db.pg.File()
		if own := f.TxID(); own != 0 && tid != 0 && own != tid {
			return fmt.Errorf("%w: database %s has stolen writes under a different device transaction",
				ErrTxState, db.name)
		}
		if tid != 0 {
			f.AdoptTx(tid)
		}
		if err := f.FlushAll(); err != nil {
			return err
		}
		tid = f.TxID()
	}
	dbs[0].pg.File().AdoptTx(tid)
	return nil
}

// settleGroup ends every database's transaction with the outcome of the
// one commit(t), prepare(t) or coordinator decision that stood for them
// all (pager.Settle); one with no transaction open, because an earlier
// settle ended it, is left alone. tid is the device transaction the
// group shared: once the lead has finished it, the followers that
// adopted it let go too.
func settleGroup(dbs []*DB, tid uint64, err error) {
	finished := tid != 0 && dbs[0].pg.File().TxID() == 0
	for _, db := range dbs {
		if f := db.pg.File(); finished && f.TxID() == tid {
			f.AdoptTx(0)
		}
		if db.explicitTx {
			db.explicitTx = false
			_ = db.failedCommit(db.pg.Settle(err))
		}
	}
}

// PrepareAtomic runs phase one of a cross-shard two-phase commit for
// the open transactions on these databases (all on one file system):
// every dirty page is staged to the device under one shared transaction
// id, then a single prepare(t) makes the page set durable without
// making it visible. The returned tid names the participant to the
// fleet coordinator; 0 means the group wrote nothing and is trivially
// prepared. The transactions stay open until FinishPrepared delivers
// the coordinator's decision; a failed prepare rolls every one back.
func PrepareAtomic(dbs ...*DB) (uint64, error) {
	if len(dbs) == 0 {
		return 0, nil
	}
	err := stageGroup(dbs)
	var tid uint64
	if err == nil {
		group := make([]string, 0, len(dbs))
		for _, db := range dbs[1:] {
			group = append(group, db.pg.File().Name())
		}
		tid, err = dbs[0].pg.File().Prepare(group...)
	}
	if err != nil {
		settleGroup(dbs, 0, err)
	}
	return tid, err
}

// FinishPrepared applies the coordinator's commit/abort decision to a
// group previously staged with PrepareAtomic. The lead file resolves
// the shared device transaction (and the file-system namespace) once;
// each database is then settled with the outcome. An abort decision
// takes any open transaction: one never prepared simply rolls back. On
// return no database is in its transaction any more.
func FinishPrepared(commit bool, dbs ...*DB) error {
	if len(dbs) == 0 {
		return nil
	}
	lead := dbs[0].pg.File()
	tid := lead.TxID()
	err := lead.FinishPrepared(commit)
	if err == nil && !commit {
		err = pager.ErrAborted
	}
	settleGroup(dbs, tid, err)
	if err == pager.ErrAborted {
		return nil
	}
	return err
}
