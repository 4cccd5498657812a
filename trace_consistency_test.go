package xftl_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/mvcc"
	"repro/internal/sqlite"
	"repro/internal/sqlite/pager"
	"repro/internal/trace"
)

// traceTx is one transaction of TestTraceMatchesCounters' workload, on
// either arm.
type traceTx interface {
	Exec(sql string, args ...any) (int64, error)
	QueryRow(sql string, args ...any) ([]sqlite.Value, bool, error)
	Commit() error
	ID() uint64
}

// rbjTx runs the workload on a bare rollback-journal connection: a
// writer inside BEGIN … COMMIT, a reader in autocommit. No session
// exists, so its id is 0.
type rbjTx struct {
	*sqlite.DB
	readonly bool
}

func (x rbjTx) Commit() error {
	if x.readonly {
		return nil
	}
	return x.DB.Commit()
}

func (rbjTx) ID() uint64 { return 0 }

// The trace must be a complete account of the run: for every counter
// the stack maintains there is an event kind, and over the same window
// the event count must equal the counter delta exactly. A missed
// instrumentation site (counter bumped, no event) or a double-recorded
// event breaks this equality. The same statements run through mvcc
// sessions on X-FTL and on a bare connection over the rollback journal.
func TestTraceMatchesCounters(t *testing.T) {
	cases := []struct {
		name string
		mode xftl.Mode
		// open returns how the arm begins a transaction.
		open func(t *testing.T, st *xftl.Stack) func(readonly bool) (traceTx, error)
	}{
		{"xftl-mvcc", xftl.ModeXFTL, func(t *testing.T, st *xftl.Stack) func(bool) (traceTx, error) {
			mgr, err := mvcc.NewManager(st.FS, "c.db", mvcc.Options{Mode: mvcc.MVCC, Journal: pager.Off, Pipelined: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = mgr.Close() })
			return func(readonly bool) (traceTx, error) { return mgr.Begin(readonly) }
		}},
		{"rbj", xftl.ModeRollback, func(t *testing.T, st *xftl.Stack) func(bool) (traceTx, error) {
			db, err := st.OpenDB("c.db")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = db.Close() })
			return func(readonly bool) (traceTx, error) {
				if readonly {
					return rbjTx{db, true}, nil
				}
				return rbjTx{db, false}, db.Begin()
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := xftl.NewStackDevice(xftl.OpenSSD(), tc.mode, xftl.DeviceOptions{}, xftl.StackOptions{})
			if err != nil {
				t.Fatal(err)
			}
			begin := tc.open(t, st)
			sessions := tc.mode == xftl.ModeXFTL

			// Attach after construction: mount-time I/O (meta page
			// programs, recovery reads) predates the tracer, so both the
			// events and the counter window start here.
			tr := trace.New()
			tr.Attach(st.Clock, tc.name)
			st.SetTracer(tr)
			host0 := st.Host.Snapshot()
			flash0 := st.FlashStats().Snapshot()
			cmds0 := st.Device.Commands()

			w, err := begin(false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Exec("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)"); err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			readers := map[uint64]bool{}
			for i := 0; i < 4; i++ {
				w, err := begin(false)
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < 8; j++ {
					if _, err := w.Exec("INSERT INTO t (k, v) VALUES (?, ?)",
						int64(i*8+j), fmt.Sprintf("value-%d-%d", i, j)); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Commit(); err != nil {
					t.Fatal(err)
				}
				// A reader between writer transactions: snapshot reads on
				// X-FTL, autocommit reads on the rollback journal.
				r, err := begin(true)
				if err != nil {
					t.Fatal(err)
				}
				if sessions && r.ID() == 0 {
					t.Error("reader session was not assigned a session id")
				}
				readers[r.ID()] = true
				if _, _, err := r.QueryRow("SELECT v FROM t WHERE k = ?", int64(i)); err != nil {
					t.Fatal(err)
				}
				if err := r.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			st.Device.Queue().Drain()

			host := st.Host.Snapshot().Sub(host0)
			flash := st.FlashStats().Snapshot().Sub(flash0)
			cmds := st.Device.Commands() - cmds0

			counts := map[trace.Kind]int64{}
			writeClass := map[int64]int64{}
			var readerReads int64
			for _, ev := range tr.Events() {
				counts[ev.Kind]++
				if ev.Kind == trace.KFSRead && readers[ev.Sess] {
					readerReads++
				}
				if ev.Kind == trace.KFSWrite {
					writeClass[ev.Aux]++
				}
			}
			check := func(what string, events, counter int64) {
				t.Helper()
				if events != counter {
					t.Errorf("%s: %d trace events vs counter delta %d", what, events, counter)
				}
			}
			check("host reads / KFSRead", counts[trace.KFSRead], host.Reads)
			check("db writes / KFSWrite(db)", writeClass[trace.WDB], host.DBWrites)
			check("journal writes / KFSWrite(journal)", writeClass[trace.WJournal], host.JournalWrites)
			check("fsmeta writes / KFSWrite(fsmeta)", writeClass[trace.WFSMeta], host.FSMetaWrites)
			check("fsyncs / KFSync", counts[trace.KFSync], host.Fsyncs)
			check("page programs / KNandProg", counts[trace.KNandProg], flash.PageWrites)
			check("page reads / KNandRead", counts[trace.KNandRead], flash.PageReads)
			check("block erases / KNandErase", counts[trace.KNandErase], flash.BlockErases)
			check("gc runs / KGC", counts[trace.KGC], flash.GCRuns)
			check("device commands / KCmd", counts[trace.KCmd], cmds)

			// The workload must actually have exercised the paths.
			for _, k := range []trace.Kind{trace.KCmd, trace.KFSync, trace.KNandProg, trace.KTxn} {
				if counts[k] == 0 {
					t.Errorf("no %v events recorded", k)
				}
			}
			// Every NCQ command carries a complete lifecycle: dispatch
			// inside the submit..complete span.
			var withSess int
			for _, ev := range tr.Events() {
				if ev.Kind != trace.KCmd {
					continue
				}
				if ev.Disp < ev.Start || ev.Disp > ev.Start+ev.Dur {
					t.Errorf("cmd op=%d dispatch %v outside [%v, %v]", ev.Op, ev.Disp, ev.Start, ev.Start+ev.Dur)
				}
				if ev.Sess != 0 {
					withSess++
				}
			}
			// Only mvcc sessions have a span and an id: a reader session's
			// page reads carry its id, and so do the commands sessions issue.
			if sessions {
				if counts[trace.KSession] == 0 {
					t.Errorf("no %v events recorded", trace.KSession)
				}
				if readerReads == 0 {
					t.Error("no page read carries a reader session's id")
				}
				if withSess == 0 {
					t.Error("no NCQ command carries a session id")
				}
			}
		})
	}
}

// Every way a write transaction can end on X-FTL — alone, deferred to a
// group, across files, in two phases, committed or taken back — is one
// ending: each pager counts it once, as a commit or a rollback, and
// records exactly one KTxn span saying which (Aux 1 or 0).
func TestEveryEndingIsOneTxnSpan(t *testing.T) {
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	write := func(t *testing.T, dbs ...*sqlite.DB) {
		t.Helper()
		for _, db := range dbs {
			must(t, db.Begin())
			_, err := db.Exec("UPDATE t SET v = v + 1 WHERE id = 1")
			must(t, err)
		}
	}
	cases := []struct {
		name               string
		end                func(t *testing.T, a, b *sqlite.DB)
		commits, rollbacks int64
	}{
		{"solo commit", func(t *testing.T, a, _ *sqlite.DB) {
			write(t, a)
			must(t, a.Commit())
		}, 1, 0},
		{"solo rollback", func(t *testing.T, a, _ *sqlite.DB) {
			write(t, a)
			must(t, a.Rollback())
		}, 0, 1},
		{"deferred, then the closer", func(t *testing.T, a, _ *sqlite.DB) {
			write(t, a)
			if deferred, err := a.CommitDeferred(); err != nil || !deferred {
				t.Fatalf("CommitDeferred: deferred=%v err=%v", deferred, err)
			}
			write(t, a)
			must(t, a.Commit())
		}, 2, 0},
		{"multi-file commit", func(t *testing.T, a, b *sqlite.DB) {
			write(t, a, b)
			must(t, sqlite.CommitAtomic(a, b))
		}, 2, 0},
		{"two-phase commit", func(t *testing.T, a, b *sqlite.DB) {
			write(t, a, b)
			_, err := sqlite.PrepareAtomic(a, b)
			must(t, err)
			must(t, sqlite.FinishPrepared(true, a, b))
		}, 2, 0},
		{"two-phase abort", func(t *testing.T, a, b *sqlite.DB) {
			write(t, a, b)
			_, err := sqlite.PrepareAtomic(a, b)
			must(t, err)
			must(t, sqlite.FinishPrepared(false, a, b))
		}, 0, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := xftl.NewStackDevice(xftl.OpenSSD(), xftl.ModeXFTL, xftl.DeviceOptions{}, xftl.StackOptions{})
			must(t, err)
			var dbs []*sqlite.DB
			for _, name := range []string{"a.db", "b.db"} {
				db, err := st.OpenDB(name)
				must(t, err)
				defer db.Close()
				must(t, db.ExecScript("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER); INSERT INTO t VALUES (1, 0)"))
				dbs = append(dbs, db)
			}
			tr := trace.New()
			tr.Attach(st.Clock, tc.name)
			st.SetTracer(tr)
			var commits, rollbacks int64
			for _, db := range dbs {
				commits -= db.Pager().Commits
				rollbacks -= db.Pager().Rollbacks
			}
			tc.end(t, dbs[0], dbs[1])
			for _, db := range dbs {
				commits += db.Pager().Commits
				rollbacks += db.Pager().Rollbacks
				if db.InTx() || db.Pager().InTx() {
					t.Errorf("%s is still in a transaction", db.Pager().Name())
				}
			}
			var spans [2]int64
			for _, ev := range tr.Events() {
				if ev.Kind == trace.KTxn {
					spans[ev.Aux]++
				}
			}
			if commits != tc.commits || rollbacks != tc.rollbacks {
				t.Errorf("counted %d commits and %d rollbacks, want %d and %d", commits, rollbacks, tc.commits, tc.rollbacks)
			}
			if spans[1] != commits || spans[0] != rollbacks {
				t.Errorf("%d commit and %d rollback KTxn spans for %d commits and %d rollbacks", spans[1], spans[0], commits, rollbacks)
			}
		})
	}
}
