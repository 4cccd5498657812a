package mvcc

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/simfs"
	"repro/internal/sqlite/pager"
	"repro/internal/storage"
	"repro/internal/trace"
)

func newStack(t *testing.T, transactional bool) *simfs.FS {
	t.Helper()
	prof := storage.OpenSSD()
	prof.Nand.Blocks = 512
	prof.Nand.PagesPerBlock = 32
	prof.Nand.PageSize = 1024
	dev, err := storage.New(prof, simclock.New(), storage.Options{Transactional: transactional})
	if err != nil {
		t.Fatal(err)
	}
	mode := simfs.Ordered
	if transactional {
		mode = simfs.OffXFTL
	}
	fsys, err := simfs.New(dev, mode, &metrics.HostCounters{})
	if err != nil {
		t.Fatal(err)
	}
	return fsys
}

func newMVCCManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(newStack(t, true), "test.db", Options{Mode: MVCC, Journal: pager.Off, CacheSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// seed creates kv(k,v) with n rows all at value v0 via one write session.
func seed(t *testing.T, m *Manager, n int, v0 int64) {
	t.Helper()
	w, err := m.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if _, err := w.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", int64(k), v0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, s *Session) []int64 {
	t.Helper()
	rows, err := s.Query("SELECT v FROM kv ORDER BY k")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	out := make([]int64, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, r[0].Int())
	}
	return out
}

// The stack-level acceptance test for X-FTL snapshot readers: a reader
// session begun while a write transaction is open does not block and
// sees nothing of it, keeps reading the pre-commit state after that
// commit lands, and cannot write; a request id set on it tags its page
// reads and does not outlive it; a reader begun afterwards sees the
// commit — all the way through the SQL layer.
func TestReaderIsolation(t *testing.T) {
	t.Run(MVCC.String(), func(t *testing.T) {
		m := newMVCCManager(t)
		seed(t, m, 4, 10)
		tr := trace.New()
		tr.Attach(m.fs.Device().Clock(), t.Name())
		m.fs.SetTracer(tr)

		w, err := m.Begin(false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Exec("UPDATE kv SET v = 20"); err != nil {
			t.Fatal(err)
		}
		r, err := m.Begin(true)
		if err != nil {
			t.Fatal(err)
		}
		r.SetReq(4242)
		for _, v := range readAll(t, r) {
			if v != 10 {
				t.Fatalf("reader sees uncommitted write: %d", v)
			}
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, v := range readAll(t, r) {
			if v != 10 {
				t.Fatalf("reader after writer commit: got %d, want 10", v)
			}
		}
		if _, err := r.Exec("UPDATE kv SET v = 99"); !errors.Is(err, pager.ErrReadOnly) {
			t.Fatalf("write through a reader: got %v, want ErrReadOnly", err)
		}
		r2, err := m.Begin(true)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range readAll(t, r2) {
			if v != 20 {
				t.Fatalf("fresh reader: got %d, want 20", v)
			}
		}
		for _, s := range []*Session{r, r2} {
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if got := m.Stats.SnapsOpen.Load(); got != 0 {
			t.Fatalf("reader leak: %d open", got)
		}
		tagged := 0
		for _, ev := range tr.Events() {
			switch {
			case ev.Kind != trace.KFSRead:
			case ev.Sess == r.ID() && ev.Req == 4242:
				tagged++
			case ev.Sess != r.ID() && ev.Req != 0:
				t.Errorf("page read of session %d carries request %d (only session %d was tagged)", ev.Sess, ev.Req, r.ID())
			}
		}
		if tagged == 0 {
			t.Error("none of the tagged reader's page reads carry its request id")
		}
	})
}

// Readers must begin and run while a write transaction is in flight —
// the "readers never block on the writer" property.
func TestReaderDoesNotBlockOnActiveWriter(t *testing.T) {
	m := newMVCCManager(t)
	seed(t, m, 2, 7)
	w, err := m.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("UPDATE kv SET v = 8 WHERE k = 0"); err != nil {
		t.Fatal(err)
	}
	// No goroutine games: if this blocked on the writer the test would
	// simply hang and time out.
	r, err := m.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range readAll(t, r) {
		if v != 7 {
			t.Fatalf("reader: got %d, want 7", v)
		}
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Rollback(); err != nil {
		t.Fatal(err)
	}
	// The rolled-back update is gone for everyone.
	r2, _ := m.Begin(true)
	for _, v := range readAll(t, r2) {
		if v != 7 {
			t.Fatalf("after rollback: got %d, want 7", v)
		}
	}
	_ = r2.Commit()
}

// Writer exclusion: a zero-budget begin returns ErrBusy while another write
// transaction holds the lock, and blocked writers proceed FIFO.
func TestWriterQueueAndBusy(t *testing.T) {
	m := newMVCCManager(t)
	seed(t, m, 1, 0)

	w1, err := m.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.BeginWith(false, 0); !errors.Is(err, ErrBusy) {
		t.Fatalf("zero-budget begin with active writer: got %v, want ErrBusy", err)
	}
	// Readers are unaffected by the writer lock.
	if r, err := m.BeginWith(true, 0); err != nil {
		t.Fatalf("zero-budget begin(readonly): %v", err)
	} else {
		_ = r.Commit()
	}

	order := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w, err := m.Begin(false)
			if err != nil {
				t.Errorf("queued writer %d: %v", id, err)
				return
			}
			order <- id
			if _, err := w.Exec("UPDATE kv SET v = v + 1 WHERE k = 0"); err != nil {
				t.Errorf("queued writer %d exec: %v", id, err)
			}
			if err := w.Commit(); err != nil {
				t.Errorf("queued writer %d commit: %v", id, err)
			}
		}(i)
		// Give writer i time to enqueue before writer i+1 so the FIFO
		// order is deterministic. A sleep-free handshake isn't possible
		// without exposing queue internals; poll the waiter count.
		for m.Stats.WriterWaits.Load() < int64(i) {
			runtime.Gosched()
		}
	}
	if err := w1.Commit(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(order)
	want := 1
	for id := range order {
		if id != want {
			t.Fatalf("writer queue order: got %d, want %d", id, want)
		}
		want++
	}
	r, _ := m.Begin(true)
	if got := readAll(t, r)[0]; got != 2 {
		t.Fatalf("both queued writers must have applied: got %d, want 2", got)
	}
	_ = r.Commit()
}

// Write attempts through a reader session fail fast with ErrReadOnly.
func TestReaderSessionRejectsWrites(t *testing.T) {
	m := newMVCCManager(t)
	seed(t, m, 1, 0)
	r, err := m.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Exec("UPDATE kv SET v = 1"); !errors.Is(err, pager.ErrReadOnly) {
		t.Fatalf("reader write: got %v, want ErrReadOnly", err)
	}
	if err := r.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(); !errors.Is(err, ErrSessionDone) {
		t.Fatalf("double end: got %v, want ErrSessionDone", err)
	}
}

// Serialized mode is the rollback-journal baseline: everything still
// works, but every transaction takes the one lock.
func TestSerializedMode(t *testing.T) {
	m, err := NewManager(newStack(t, false), "test.db", Options{Mode: Serialized, Journal: pager.Rollback, CacheSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	seed(t, m, 2, 5)
	r, err := m.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range readAll(t, r) {
		if v != 5 {
			t.Fatalf("serialized read: got %d, want 5", v)
		}
	}
	// While the read session holds the lock, a writer cannot start.
	if _, err := m.BeginWith(false, 0); !errors.Is(err, ErrBusy) {
		t.Fatalf("serialized zero-budget begin during read: got %v, want ErrBusy", err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	w, err := m.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("UPDATE kv SET v = 6"); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

// MVCC mode refuses journal modes other than Off: snapshot reads only
// make sense when atomicity is delegated to the X-FTL device.
func TestMVCCRequiresJournalOff(t *testing.T) {
	if _, err := NewManager(newStack(t, true), "test.db", Options{Mode: MVCC, Journal: pager.Rollback}); err == nil {
		t.Fatal("MVCC over rollback journal must be rejected")
	}
}

// Concurrency smoke under -race: N readers each open snapshots and
// assert every row carries one uniform generation while a writer
// bumps the generation of all rows per transaction.
func TestConcurrentReadersUniformGeneration(t *testing.T) {
	m := newMVCCManager(t)
	const rowsN = 8
	seed(t, m, rowsN, 0)

	const readers, txPerReader, writerTx = 4, 20, 30
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := int64(1); g <= writerTx; g++ {
			w, err := m.Begin(false)
			if err != nil {
				t.Errorf("writer begin: %v", err)
				return
			}
			if _, err := w.Exec("UPDATE kv SET v = ?", g); err != nil {
				t.Errorf("writer update: %v", err)
				_ = w.Rollback()
				return
			}
			if err := w.Commit(); err != nil {
				t.Errorf("writer commit: %v", err)
				return
			}
		}
	}()
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < txPerReader; n++ {
				r, err := m.Begin(true)
				if err != nil {
					t.Errorf("reader begin: %v", err)
					return
				}
				vs := readAll(t, r)
				if len(vs) != rowsN {
					t.Errorf("reader saw %d rows, want %d", len(vs), rowsN)
				}
				for _, v := range vs {
					if v != vs[0] {
						t.Errorf("torn snapshot: generations %v", vs)
						break
					}
				}
				if err := r.Commit(); err != nil {
					t.Errorf("reader end: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := m.Stats.SnapsOpen.Load(); got != 0 {
		t.Fatalf("snapshot leak: %d", got)
	}
	if m.Stats.ReadTx.Load() < readers*txPerReader {
		t.Fatalf("read tx undercount: %d", m.Stats.ReadTx.Load())
	}
}
