package mvcc

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/simfs"
	"repro/internal/sqlite"
	"repro/internal/sqlite/pager"
	"repro/internal/trace"
)

// queueWriter starts a write session on its own goroutine and returns
// once it holds a FIFO ticket behind the current lock holder; the channel
// delivers it when its turn comes.
func queueWriter(t *testing.T, m *Manager) <-chan *Session {
	t.Helper()
	waits := m.Stats.WriterWaits.Load()
	turn := make(chan *Session, 1)
	go func() {
		s, err := m.Begin(false)
		if err != nil {
			t.Errorf("queued writer: %v", err)
		}
		turn <- s
	}()
	for m.Stats.WriterWaits.Load() == waits {
		runtime.Gosched()
	}
	return turn
}

// commitAsync commits s on its own goroutine: a deferred commit returns
// only when its group's commit(t) has.
func commitAsync(s *Session) <-chan error {
	done := make(chan error, 1)
	go func() { done <- s.Commit() }()
	return done
}

func mustExec(t *testing.T, s *Session, sql string, args ...any) {
	t.Helper()
	if _, err := s.Exec(sql, args...); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func xstats(m *Manager) core.Stats { return m.fs.Device().XFTL().Stats() }

// deferredPair leaves w1's commit deferred to w2, which holds the lock
// with a transaction open: the state every group-closing rule starts from.
func deferredPair(t *testing.T, m *Manager) (w1done <-chan error, w2 *Session) {
	t.Helper()
	w1, err := m.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	turn := queueWriter(t, m)
	mustExec(t, w1, "UPDATE kv SET v = 1 WHERE k = 1")
	w1done = commitAsync(w1)
	if w2 = <-turn; w2 == nil {
		t.FailNow()
	}
	select {
	case err := <-w1done:
		t.Fatalf("deferred member acknowledged (%v) before its group's commit(t)", err)
	default:
	}
	return w1done, w2
}

// A group of two rides one commit(t) and one X-L2P image; neither member
// is acknowledged or visible before it, both are after.
func TestGroupOfTwoSharesOneCommit(t *testing.T) {
	m := newMVCCManager(t)
	seed(t, m, 8, 0)
	st0 := xstats(m)
	groups0, members0 := m.Stats.GroupCommits.Load(), m.Stats.GroupMembers.Load()

	w1done, w2 := deferredPair(t, m)
	mustExec(t, w2, "UPDATE kv SET v = 2 WHERE k = 2")
	before, err := m.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	if st := xstats(m); st.Commits != st0.Commits {
		t.Fatalf("deferring issued %d commit(t)s", st.Commits-st0.Commits)
	}
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-w1done; err != nil {
		t.Fatalf("deferred member: %v", err)
	}
	st := xstats(m)
	if st.Commits-st0.Commits != 1 || st.TableImages-st0.TableImages != 1 {
		t.Fatalf("group of two cost %d commit(t)s and %d X-L2P images, want 1 and 1",
			st.Commits-st0.Commits, st.TableImages-st0.TableImages)
	}
	if g, n := m.Stats.GroupCommits.Load()-groups0, m.Stats.GroupMembers.Load()-members0; g != 1 || n != 2 {
		t.Fatalf("counted %d groups of %d members, want 1 of 2", g, n)
	}
	after, err := m.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, before); got[1] != 0 || got[2] != 0 {
		t.Fatalf("snapshot opened before the group's commit sees it: %v", got)
	}
	if got := readAll(t, after); got[1] != 1 || got[2] != 2 {
		t.Fatalf("snapshot opened after the group's commit misses a member: %v", got)
	}
	_, _ = before.Commit(), after.Commit()
}

// Two closed-loop writers stay paired whatever the scheduler does: the
// closer waits out its member's wake-up before it asks for a successor, so
// with one CPU — where an acknowledged member runs only once the closer
// blocks — every commit(t) after the first still carries both. (Without
// the handshake the closer's next transaction commits alone: ~590.)
func TestGroupsStayPairedOnOneCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := newMVCCManager(t)
	seed(t, m, 8, 0)
	const txns = 300
	w1, err := m.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	turn := queueWriter(t, m) // the first pair, queued before either commits
	groups0 := m.Stats.GroupCommits.Load()
	var wg sync.WaitGroup
	writer := func(s *Session, k int64) {
		defer wg.Done()
		for i := 0; i < txns && s != nil; i++ {
			if _, err := s.Exec("UPDATE kv SET v = v + 1 WHERE k = ?", k); err != nil {
				t.Error(err)
			}
			if err := s.Commit(); err != nil {
				t.Error(err)
			}
			if i+1 < txns {
				if s, err = m.Begin(false); err != nil {
					t.Error(err)
				}
			}
		}
	}
	wg.Add(2)
	go writer(w1, 1)
	go func() { writer(<-turn, 2) }()
	wg.Wait()
	got := m.Stats.GroupCommits.Load() - groups0
	t.Logf("%d commit(t)s for 2 x %d transactions", got, txns)
	if got > txns+5 {
		t.Errorf("the writers did not stay paired")
	}
	r, err := m.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, r); got[1] != txns || got[2] != txns {
		t.Errorf("after 2 x %d increments: %v", txns, got)
	}
	_ = r.Commit()
}

// A member that cannot join closes the group first: the successor's
// rollback, its hand-off through DB(), Solo and a stolen page each commit
// the deferred member on their own and leave the successor's fate its own.
func TestSuccessorClosesGroup(t *testing.T) {
	for _, tc := range []struct {
		name  string
		close func(t *testing.T, w2 *Session)
	}{
		{"rollback", func(t *testing.T, w2 *Session) {
			mustExec(t, w2, "UPDATE kv SET v = 2 WHERE k = 2")
			if err := w2.Rollback(); err != nil {
				t.Fatal(err)
			}
		}},
		{"db", func(t *testing.T, w2 *Session) { w2.DB() }},
		{"solo", func(t *testing.T, w2 *Session) {
			if err := w2.Solo(); err != nil {
				t.Fatal(err)
			}
		}},
		{"steal", func(t *testing.T, w2 *Session) {
			// More dirty pages than the steal case's 8-page cache holds.
			for k := 100; k < 1600; k++ {
				mustExec(t, w2, "INSERT INTO kv (k, v) VALUES (?, 2)", int64(k))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMVCCManager(t)
			if tc.name == "steal" {
				var err error
				if m, err = NewManager(newStack(t), "test.db", Options{Mode: MVCC, Journal: pager.Off, CacheSize: 8}); err != nil {
					t.Fatal(err)
				}
				defer m.Close()
			}
			seed(t, m, 8, 0)
			if tc.name == "steal" {
				// A reader parked in the pool is live: its share leaves the
				// writer no budget to borrow, so the writer caches 8 pages.
				readOnce(t, m)
			}
			st0 := xstats(m)
			w1done, w2 := deferredPair(t, m)
			tc.close(t, w2)
			// The group is closed: the deferred member has its answer while
			// the successor still holds the lock.
			if err := <-w1done; err != nil {
				t.Fatalf("deferred member: %v", err)
			}
			if n := xstats(m).Commits - st0.Commits; n != 1 {
				t.Fatalf("closing the group cost %d commit(t)s, want 1", n)
			}
			r, err := m.Begin(true)
			if err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, r); got[1] != 1 || got[2] != 0 || len(got) != 8 {
				t.Fatalf("after the group closed: %v, want the deferred member's row only", got)
			}
			_ = r.Commit()
			if !w2.done {
				// Whatever the successor had open is its own to abort.
				if err := w2.Rollback(); err != nil {
					t.Fatal(err)
				}
			}
			r, _ = m.Begin(true)
			if got := readAll(t, r); got[1] != 1 || got[2] != 0 || len(got) != 8 {
				t.Fatalf("after the successor's rollback: %v, want the deferred member's row only", got)
			}
			_ = r.Commit()
		})
	}
}

// A commit failed by the device — a full X-L2P table, not a power cut —
// fails every member of the group it carried (a lone writer being a group
// of one), leaves none of them behind, and leaves the shared connection
// usable by the next writer.
func TestFailedCommitFailsTheGroupAndFreesTheConnection(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		t.Run(map[bool]string{false: "lone", true: "group"}[grouped], func(t *testing.T) {
			m := newMVCCManager(t)
			seed(t, m, 8, 0)
			var (
				w1done <-chan error
				w2     *Session
				err    error
			)
			if grouped {
				w1done, w2 = deferredPair(t, m)
			} else if w2, err = m.Begin(false); err != nil {
				t.Fatal(err)
			}
			mustExec(t, w2, "UPDATE kv SET v = 2 WHERE k = 2")
			// Fill the X-L2P table under a foreign tid, leaving no row for
			// the commit's pages.
			dev := m.fs.Device()
			x, page := dev.XFTL(), make([]byte, m.fs.PageSize())
			const foreign = 1 << 40
			dev.Queue().Exclusive(func() {
				for lpn := ftl.LPN(dev.LogicalPages() - 1); err == nil; lpn-- {
					err = x.WriteTx(foreign, lpn, page)
				}
			})
			if !errors.Is(err, core.ErrTableFull) {
				t.Fatal(err)
			}
			if err := w2.Commit(); !errors.Is(err, core.ErrTableFull) {
				t.Fatalf("commit on a full table: %v, want ErrTableFull", err)
			}
			if grouped {
				if err := <-w1done; !errors.Is(err, core.ErrTableFull) {
					t.Fatalf("deferred member of the failed group: %v, want ErrTableFull", err)
				}
			}
			dev.Queue().Exclusive(func() { err = x.Abort(foreign) })
			if err != nil {
				t.Fatal(err)
			}
			w3, err := m.Begin(false)
			if err != nil {
				t.Fatalf("next writer after a failed commit: %v", err)
			}
			if got := readAll(t, w3); got[1] != 0 || got[2] != 0 {
				t.Fatalf("the failed commit left rows behind: %v", got)
			}
			mustExec(t, w3, "UPDATE kv SET v = 3 WHERE k = 3")
			if err := w3.Commit(); err != nil {
				t.Fatalf("next writer's commit: %v", err)
			}
			r, _ := m.Begin(true)
			if got := readAll(t, r); !slices.Equal(got, []int64{0, 0, 0, 3, 0, 0, 0, 0}) {
				t.Fatalf("after the failed commit and one good one: %v", got)
			}
			_ = r.Commit()
		})
	}
}

// cmd is what identifies a device command in a KCmd stream.
type cmd struct {
	op       uint8
	lpn      int64
	tid      uint64
	from, to int64 // submitted, done (virtual ns)
}

func kcmds(tr *trace.Tracer) (out []cmd) {
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KCmd {
			out = append(out, cmd{ev.Op, ev.Addr, ev.TID, int64(ev.Start), int64(ev.Start + ev.Dur)})
		}
	}
	return out
}

// A lone writer is a group of one on the ordinary path: through the
// session layer, pipelined, it issues the command stream (op, LPN, tid, in
// order) a bare connection does — the path every paper table runs.
func TestLoneWriterCommandStream(t *testing.T) {
	script := func(exec func(sql string, args ...any), commit func()) {
		exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
		for k := 0; k < 200; k++ {
			exec("INSERT INTO kv (k, v) VALUES (?, 0)", int64(k))
		}
		commit()
		for g := 1; g <= 5; g++ {
			for k := g; k < 200; k += 37 {
				exec("UPDATE kv SET v = ? WHERE k = ?", int64(g), int64(k))
			}
			commit()
		}
	}
	traced := func() (*simfs.FS, *trace.Tracer) {
		fsys := newStack(t)
		tr := trace.New()
		tr.Attach(fsys.Device().Clock(), t.Name())
		fsys.Device().SetTracer(tr)
		return fsys, tr
	}

	fsys, bareTrace := traced()
	db, err := sqlite.Open(fsys, "test.db", sqlite.Config{Mode: pager.Off, CacheSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Begin())
	script(func(sql string, args ...any) { _, err := db.Exec(sql, args...); must(err) },
		func() { must(db.Commit()); must(db.Begin()) })
	must(db.Rollback())

	fsys, sessTrace := traced()
	m, err := NewManager(fsys, "test.db", Options{Mode: MVCC, Journal: pager.Off, CacheSize: 200, Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	w, err := m.Begin(false)
	must(err)
	script(func(sql string, args ...any) { mustExec(t, w, sql, args...) },
		func() { must(w.Commit()); w, err = m.Begin(false); must(err) })
	must(w.Rollback())

	bare, sess := kcmds(bareTrace), kcmds(sessTrace)
	if len(bare) == 0 || len(bare) != len(sess) {
		t.Fatalf("bare connection issued %d commands, lone session %d", len(bare), len(sess))
	}
	overlapped := false
	for i := range bare {
		if b, s := bare[i], sess[i]; b.op != s.op || b.lpn != s.lpn || b.tid != s.tid {
			t.Fatalf("command %d: bare %+v, lone session %+v", i, b, s)
		}
		if i > 0 && sess[i].from < sess[i-1].to {
			overlapped = true
		}
		if i > 0 && bare[i].from < bare[i-1].to {
			t.Fatalf("bare connection's command %d was submitted before %d completed", i, i-1)
		}
	}
	if !overlapped {
		t.Error("the pipelined writer's commit-time writes never overlapped")
	}
}
