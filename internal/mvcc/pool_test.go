package mvcc

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sqlite/pager"
)

func newPooledManager(t *testing.T, capacity int) *Manager {
	t.Helper()
	m, err := NewManager(newStack(t, true), "test.db",
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
	if st.HitRatio() < 0.9 {
		t.Fatalf("steady-state hit ratio %.2f < 0.9", st.HitRatio())
	}
}

// A commit between reads invalidates the pooled connection: the next
// reader cold-opens and sees the new state — a warm hit must never
// serve a stale generation.
func TestPooledReaderInvalidatedByCommit(t *testing.T) {
	m := newPooledManager(t, 4)
	seed(t, m, 4, 10)

	r, err := m.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r)
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}

	w, err := m.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("UPDATE kv SET v = 20"); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	r2, err := m.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range readAll(t, r2) {
		if v != 20 {
			t.Fatalf("post-commit pooled reader: got %d, want 20", v)
		}
	}
	if err := r2.Commit(); err != nil {
		t.Fatal(err)
	}
	st, _ := m.PoolStats()
	if st.Invalidations == 0 {
		t.Fatalf("commit did not invalidate the pool: %+v", st)
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

func TestManagerGaugesExported(t *testing.T) {
	m := newPooledManager(t, 4)
	seed(t, m, 2, 1)
	reg := metrics.NewRegistry()
	m.Register(reg, "3")
	if missing := missingGauges(reg, "xftl_readpool_hits_total", "xftl_readpool_misses_total",
		"xftl_readpool_evictions_total", "xftl_readpool_invalidations_total", "xftl_readpool_idle"); len(missing) > 0 {
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

// A manager whose writer journals through the WAL exports its checkpoint
// count for the serving tier; no reader defers a checkpoint, so there is
// no deferred-checkpoint family.
func TestWALCheckpointGaugesExported(t *testing.T) {
	m, err := NewManager(newStack(t, false), "test.db", Options{Mode: Serialized, Journal: pager.WAL, CacheSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	seed(t, m, 2, 1)
	reg := metrics.NewRegistry()
	m.Register(reg, "3")
	if missing := missingGauges(reg, "xftl_wal_checkpoints_total"); len(missing) > 0 {
		t.Errorf("gauges not registered: %v", missing)
	}
	if missing := missingGauges(reg, "xftl_wal_checkpoints_deferred_total"); len(missing) == 0 {
		t.Error("xftl_wal_checkpoints_deferred_total is still exported")
	}
}
