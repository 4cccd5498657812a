//go:build !race

package mvcc

import "testing"

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
