package mvcc

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sqlite/pager"
)

func newPooledManager(t *testing.T, capacity int) *Manager {
	t.Helper()
	m, err := NewManager(newStack(t), "test.db",
		Options{Mode: MVCC, Journal: pager.Off, CacheSize: 200, PoolCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// Steady-state reads (no interleaved commits) must reuse the warm
// pooled connection: first read cold-opens, every subsequent one hits.
func TestPooledReadersReuseWarmConnection(t *testing.T) {
	m := newPooledManager(t, 4)
	seed(t, m, 4, 10)

	const reads = 20
	for i := 0; i < reads; i++ {
		r, err := m.Begin(true)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range readAll(t, r) {
			if v != 10 {
				t.Fatalf("read %d: got %d, want 10", i, v)
			}
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := m.PoolStats()
	if !ok {
		t.Fatal("pool disabled")
	}
	if st.Hits != reads-1 || st.Misses != 1 {
		t.Fatalf("pool stats = %+v, want %d hits / 1 miss", st, reads-1)
	}
	if ratio := float64(st.Hits) / float64(st.Hits+st.Misses); ratio < 0.9 {
		t.Fatalf("steady-state hit ratio %.2f < 0.9", ratio)
	}
}

// readOnce runs one read session and returns every value it saw.
func readOnce(t *testing.T, m *Manager) []int64 {
	t.Helper()
	r, err := m.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	vs := readAll(t, r)
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	return vs
}

// write runs one write session.
func write(t *testing.T, m *Manager, sql string, args ...any) {
	t.Helper()
	w, err := m.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec(sql, args...); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

// A commit between reads does not cost the pooled connection: the next
// reader gets it re-seated past the commit and sees the new state — a
// warm hit must never serve a stale generation.
func TestPooledReaderAdvancedByCommit(t *testing.T) {
	m := newPooledManager(t, 4)
	seed(t, m, 4, 10)

	readOnce(t, m)
	write(t, m, "UPDATE kv SET v = 20")
	for _, v := range readOnce(t, m) {
		if v != 20 {
			t.Fatalf("post-commit pooled reader: got %d, want 20", v)
		}
	}
	if st, _ := m.PoolStats(); st.Hits != 1 || st.Misses != 1 || st.Invalidations != 0 {
		t.Fatalf("pool stats = %+v, want the second reader re-seated (1 hit), nothing closed", st)
	}
}

// A commit that grows the file writes page 1: the next reader gets the
// pooled connection re-seated over a fresh snapshot with its header and
// catalog reloaded, not a cold open, and sees every new row.
func TestPooledReaderReseatedAfterGrowth(t *testing.T) {
	m := newPooledManager(t, 4)
	seed(t, m, 4, 10)

	readOnce(t, m)
	pages := m.db.Pager().NPages()
	w, err := m.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	want := 4
	for ; m.db.Pager().NPages() == pages; want++ {
		if _, err := w.Exec("INSERT INTO kv (k, v) VALUES (?, 10)", want); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readOnce(t, m); len(got) != want {
		t.Fatalf("reader after growth saw %d rows, want %d", len(got), want)
	}
	if st, _ := m.PoolStats(); st.Hits != 1 || st.Misses != 1 || st.Invalidations != 0 {
		t.Fatalf("pool stats = %+v, want the second reader re-seated (1 hit) after the first's cold open", st)
	}
}

// Readers re-seating pooled connections while a writer commits beside
// them: no reader sees a torn table or one older than the last commit
// that returned before it began. Run it under -race: every reader reads
// through the table the writer's commits publish to.
func TestPooledReadersAdvanceBesideWriter(t *testing.T) {
	m := newPooledManager(t, 4)
	const rows, gens, readers = 200, 60, 4 // a few leaves of 1 KB
	seed(t, m, rows, 0)
	var committed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := int64(1); g <= gens; g++ {
			w, err := m.Begin(false)
			if err == nil {
				_, err = w.Exec("UPDATE kv SET v = ?", g)
				if err == nil {
					err = w.Commit()
				} else {
					_ = w.Rollback()
				}
			}
			if err != nil {
				t.Error(err)
				return
			}
			committed.Store(g)
			runtime.Gosched()
		}
	}()
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for committed.Load() < gens {
				floor := committed.Load()
				r, err := m.Begin(true)
				if err != nil {
					t.Error(err)
					return
				}
				rs, err := r.Query("SELECT v FROM kv")
				_ = r.Commit()
				if err != nil {
					t.Error(err)
					return
				}
				if rs.Len() != rows {
					t.Errorf("reader saw %d rows, want %d", rs.Len(), rows)
					return
				}
				g := rs.Data[0][0].Int()
				for _, row := range rs.Data {
					if row[0].Int() != g {
						t.Errorf("torn read: generations %d and %d in one snapshot", g, row[0].Int())
						return
					}
				}
				if g < floor {
					t.Errorf("reader saw generation %d after %d had committed", g, floor)
					return
				}
				runtime.Gosched() // on one processor the writer must get its turn
			}
		}()
	}
	wg.Wait()
	st, _ := m.PoolStats()
	t.Logf("pool stats %+v", st)
	if st.Hits == 0 {
		t.Error("no reader was served a pooled connection")
	}
}

// Four readers at mixed sequences beside a committing writer, sharing
// one small table: reader i holds each session for i+1 reads while the
// writer commits between them, so the table holds several versions of a
// page at once and readers insert versions as commits race them. Every
// read of a session sees one generation on every row, the same one each
// time, no older than the last commit that returned before the session
// began. Run it under -race, on one processor and on two.
func TestReadersAtMixedSequencesBesideWriter(t *testing.T) {
	m, err := NewManager(newStack(t), "test.db", Options{Mode: MVCC, Journal: pager.Off, CacheSize: 4, PoolCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	const rows, gens, readers = 400, 80, 4 // ≈ 5 leaves beside a 16-frame table
	seed(t, m, rows, 0)
	var committed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := int64(1); g <= gens; g++ {
			w, err := m.Begin(false)
			if err == nil {
				_, err = w.Exec("UPDATE kv SET v = ?", g)
				if err == nil {
					err = w.Commit()
				} else {
					_ = w.Rollback()
				}
			}
			if err != nil {
				t.Error(err)
				return
			}
			committed.Store(g)
			runtime.Gosched()
		}
	}()
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for committed.Load() < gens {
				floor := committed.Load()
				r, err := m.Begin(true)
				if err != nil {
					t.Error(err)
					return
				}
				seen := int64(-1)
				for n := 0; n <= i; n++ {
					vs := readAll(t, r)
					if len(vs) != rows {
						t.Errorf("reader %d saw %d rows, want %d", i, len(vs), rows)
						break
					}
					for _, v := range vs {
						if v != vs[0] {
							t.Errorf("reader %d: torn read, generations %d and %d in one snapshot", i, vs[0], v)
							break
						}
					}
					if seen >= 0 && vs[0] != seen {
						t.Errorf("reader %d: its snapshot moved from generation %d to %d", i, seen, vs[0])
					}
					if seen = vs[0]; seen < floor {
						t.Errorf("reader %d saw generation %d after %d had committed", i, seen, floor)
					}
					runtime.Gosched() // let the writer commit between reads
				}
				_ = r.Commit()
				if t.Failed() {
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := m.frames.Resident(); n > 16 {
		t.Errorf("the table holds %d pages, over its 16 frames", n)
	}
}

// Concurrent pooled readers each hold their own connection; the pool
// serves at most one session per pooled conn at a time.
func TestPooledReadersConcurrentSessions(t *testing.T) {
	m := newPooledManager(t, 2)
	seed(t, m, 4, 10)

	a, err := m.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	if a.DB() == b.DB() {
		t.Fatal("two live read sessions share one connection")
	}
	for _, s := range []*Session{a, b} {
		for _, v := range readAll(t, s) {
			if v != 10 {
				t.Fatalf("concurrent pooled read: got %d", v)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// Pooled readers share one table of PoolCapacity × CacheSize frames: a
// reader alone may fill all of them, and readers live together read each
// other's pages — one that reads what another already read reads nothing
// from flash — with the table never over its frames.
func TestPooledReadersShareCacheBudget(t *testing.T) {
	m, host := newBudgetManager(t, budgetCapacity) // ≈ 100 leaves: more than the frames
	var rs []*Session
	for i := 0; i < 4; i++ {
		r, err := m.Begin(true)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	mustScan(t, rs[0])
	if n := m.frames.Resident(); n != budgetPages {
		t.Fatalf("a lone reader's scan left %d pages in the table, want all %d frames", n, budgetPages)
	}
	const point = "SELECT v FROM big WHERE k = ?"
	for k := int64(0); k < 400; k += 13 {
		if _, _, err := rs[0].QueryRow(point, k); err != nil {
			t.Fatal(err)
		}
		reads := host.Reads.Load()
		for _, r := range rs[1:] {
			if _, ok, err := r.QueryRow(point, k); err != nil || !ok {
				t.Fatalf("key %d: %v %v", k, ok, err)
			}
		}
		if n := host.Reads.Load() - reads; n != 0 {
			t.Fatalf("key %d: three readers at the first's sequence read %d pages it had read", k, n)
		}
		if n := m.frames.Resident(); n > budgetPages {
			t.Fatalf("the table holds %d pages, over its %d frames", n, budgetPages)
		}
	}
	for _, r := range rs {
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestManagerGaugesExported(t *testing.T) {
	m := newPooledManager(t, 4)
	seed(t, m, 2, 1)
	reg := metrics.NewRegistry()
	m.Register(reg, "3")
	if missing := missingGauges(reg, "xftl_readpool_hits_total", "xftl_readpool_misses_total",
		"xftl_readpool_evictions_total", "xftl_readpool_invalidations_total", "xftl_readpool_idle", "xftl_readpool_cache_pages"); len(missing) > 0 {
		t.Errorf("gauges not registered: %v", missing)
	}
}

// missingGauges reports which of the wanted families a registry's
// exposition lacks a {shard="3",db="test.db"} series of.
func missingGauges(reg *metrics.Registry, want ...string) []string {
	var b strings.Builder
	_ = reg.WritePrometheus(&b)
	var missing []string
	for _, name := range want {
		if !strings.Contains(b.String(), "\n"+name+`{shard="3",db="test.db"} `) {
			missing = append(missing, name)
		}
	}
	return missing
}
