package mvcc

import (
	"testing"

	"repro/internal/sqlite/pager"
	"repro/internal/trace"
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
	reg := trace.NewRegistry()
	m.RegisterGauges(reg, "")
	if missing := missingGauges(reg, "readpool.hits", "readpool.misses",
		"readpool.evictions", "readpool.invalidations", "readpool.idle"); len(missing) > 0 {
		t.Errorf("gauges not registered: %v", missing)
	}
}

// missingGauges reports which of the wanted gauge names a registry
// snapshot lacks.
func missingGauges(reg *trace.Registry, want ...string) []string {
	have := make(map[string]bool)
	for _, st := range reg.Snapshot() {
		have[st.Name] = true
	}
	var missing []string
	for _, name := range want {
		if !have[name] {
			missing = append(missing, name)
		}
	}
	return missing
}

func newWALConcManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(newStack(t, false), "test.db",
		Options{Mode: WALConc, Journal: pager.WAL, CacheSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// WAL-journal gauges are exported for the serving tier.
func TestWALConcGaugesExported(t *testing.T) {
	m := newWALConcManager(t)
	seed(t, m, 2, 1)
	reg := trace.NewRegistry()
	m.RegisterGauges(reg, "")
	if missing := missingGauges(reg, "wal.checkpoints", "wal.ckpt_deferred"); len(missing) > 0 {
		t.Errorf("gauges not registered: %v", missing)
	}
}
