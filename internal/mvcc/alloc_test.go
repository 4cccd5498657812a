//go:build !race

package mvcc

import (
	"runtime"
	"testing"
)

// pooledReadAllocs is what one pooled read session — Begin(true), one
// point read served from the warm connection's page cache, Commit —
// allocated before the reader paths were unified (measured at commit
// 03f3379). The session, its I/O context and the pool hand-off are the
// only part of that the session layer owns; the rest is the SQL
// executor's. serve_mixed's host_allocs_per_op is this number plus the
// wire. (Not under -race: the race runtime allocates.)
const pooledReadAllocs = 38

func TestPooledReadSessionAllocs(t *testing.T) {
	m := newPooledManager(t, 4)
	seed(t, m, 64, 10)
	session := func() {
		r, err := m.Begin(true)
		if err != nil {
			t.Fatal(err)
		}
		row, ok, err := r.QueryRow("SELECT v FROM kv WHERE k = ?", int64(7))
		if err != nil || !ok || row[0].Int() != 10 {
			t.Fatalf("point read: row %v ok %v err %v", row, ok, err)
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	session() // cold open: parks the warm connection every later session reuses
	got := testing.AllocsPerRun(200, session)
	if st, _ := m.PoolStats(); st.Misses != 1 {
		t.Fatalf("pool stats %+v: measured sessions were not all warm", st)
	}
	t.Logf("pooled read session: %.0f allocs", got)
	if got > pooledReadAllocs {
		t.Errorf("pooled read session allocates %.0f objects, %d before the reader unification", got, pooledReadAllocs)
	}
}

// Group commit adds no allocation to the write path: a cycle of two
// writers committing as one group allocates, per member, no more than a
// lone writer's session (Begin, one UPDATE, Commit) does — the deferred
// member skips an fsync and waits on the manager's own condition variable.
func TestGroupCommitAllocs(t *testing.T) {
	m := newMVCCManager(t)
	seed(t, m, 64, 0)
	write := func(k int64) {
		w, err := m.Begin(false)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := w.Exec("UPDATE kv SET v = v + 1 WHERE k = ?", k); err != nil {
			t.Error(err)
		}
		if err := w.Commit(); err != nil {
			t.Error(err)
		}
	}
	lone := testing.AllocsPerRun(200, func() { write(7) })

	// The second writer lives on one goroutine for the whole measurement.
	next, done := make(chan struct{}), make(chan struct{})
	go func() {
		for range next {
			write(9)
			done <- struct{}{}
		}
	}()
	defer close(next)
	groups0 := m.Stats.GroupCommits.Load()
	const runs = 200
	pair := testing.AllocsPerRun(runs, func() {
		w, err := m.Begin(false)
		if err != nil {
			t.Fatal(err)
		}
		waits := m.Stats.WriterWaits.Load()
		next <- struct{}{}
		for m.Stats.WriterWaits.Load() == waits {
			runtime.Gosched()
		}
		if _, err := w.Exec("UPDATE kv SET v = v + 1 WHERE k = ?", int64(7)); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		<-done
	})
	if got := m.Stats.GroupCommits.Load() - groups0; got != runs+1 {
		t.Fatalf("%d commit(t)s for %d two-writer cycles: the writers did not pair up", got, runs+1)
	}
	t.Logf("lone write session: %.0f allocs; group of two: %.0f (%.1f per member)", lone, pair, pair/2)
	if pair/2 > lone {
		t.Errorf("a group of two allocates %.1f objects per member, a lone write session %.0f", pair/2, lone)
	}
}
