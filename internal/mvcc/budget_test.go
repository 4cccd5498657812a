package mvcc

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/sqlite/pager"
)

// The budget tests' manager: an 8-page writer cache and a pool of 4
// sharing a 32-frame table, over a table of about 100 one-KB leaves, so
// any scan fills whatever cache it runs in.
const (
	budgetCache    = 8
	budgetCapacity = 4
	budgetPages    = budgetCache * budgetCapacity
	budgetScan     = "SELECT count(*) FROM big"
)

func newBudgetManager(t *testing.T, capacity int) (*Manager, *metrics.HostCounters) {
	t.Helper()
	fsys, host := newCountedStack(t)
	m, err := NewManager(fsys, "test.db",
		Options{Mode: MVCC, Journal: pager.Off, CacheSize: budgetCache, PoolCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	w, err := m.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, w, "CREATE TABLE big (k INTEGER PRIMARY KEY, v TEXT)")
	for k := 0; k < 400; k++ {
		mustExec(t, w, "INSERT INTO big VALUES (?, ?)", int64(k), fmt.Sprintf("r%0199d", k))
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	return m, host
}

// mustScan reads every page of the big table through s.
func mustScan(t *testing.T, s *Session) {
	t.Helper()
	if _, _, err := s.QueryRow(budgetScan); err != nil {
		t.Fatal(err)
	}
}

// The writer caches its CacheSize and keeps what it has no room for in the
// table while no reader needs the frames: with no reader at work, a
// working set of CacheSize + PoolCapacity × CacheSize pages is read from
// flash once. A reader gone live reads what the writer left there, and a
// commit's pages, published, are read from the table too. The writer's
// cache never grows past its CacheSize, so a large update steals, and a
// steal that fails fails its statement.
func TestWriterBorrowsIdleBudget(t *testing.T) {
	begin := func(t *testing.T, m *Manager, readonly bool) *Session {
		t.Helper()
		s, err := m.Begin(readonly)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	commit := func(t *testing.T, s *Session) {
		t.Helper()
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	const point = "SELECT v FROM big WHERE k = ?"
	const leaves = budgetCache + budgetPages - 4 // room for page 1, the roots and the catalog
	// visit has s read one row on each of the first leaves, newest last or
	// first.
	visit := func(t *testing.T, s *Session, backwards bool) {
		t.Helper()
		for i := range leaves {
			if backwards {
				i = leaves - 1 - i
			}
			if _, _, err := s.QueryRow(point, int64(4*i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantWriter := func(t *testing.T, m *Manager, what string) {
		t.Helper()
		if pg := m.db.Pager(); pg.CachedPages() > budgetCache {
			t.Fatalf("%s: the writer caches %d pages, over its %d", what, pg.CachedPages(), budgetCache)
		}
	}

	t.Run("idle", func(t *testing.T) {
		m, host := newBudgetManager(t, budgetCapacity)
		w := begin(t, m, false)
		visit(t, w, false)
		wantWriter(t, m, "a visit")
		reads := host.Reads.Load()
		visit(t, w, true)
		if n := host.Reads.Load() - reads; n != 0 {
			t.Fatalf("the writer's second visit read %d pages from flash, want none", n)
		}
		commit(t, w)
		r := begin(t, m, true)
		reads = host.Reads.Load()
		visit(t, r, true)
		if n := host.Reads.Load() - reads; n > budgetCache {
			t.Fatalf("a reader gone live read %d pages from flash, more than the %d the writer's own cache keeps", n, budgetCache)
		}
		commit(t, r)
	})
	t.Run("statement", func(t *testing.T) {
		// A reader scanning beside an open write transaction takes the
		// table's frames; the writer's next statement reads what it lost
		// from flash, within its own cache.
		m, _ := newBudgetManager(t, budgetCapacity)
		w := begin(t, m, false)
		mustScan(t, w)
		r := begin(t, m, true)
		mustScan(t, r)
		if n := m.frames.Resident(); n != budgetPages {
			t.Fatalf("a reader's scan left %d pages in the table, want all %d frames", n, budgetPages)
		}
		mustScan(t, w)
		wantWriter(t, m, "a scan beside a reader")
		commit(t, w)
		commit(t, r)
	})
	t.Run("end", func(t *testing.T) {
		// A commit publishes the pages it wrote: a reader begun after it
		// reads them from the table, not from flash. Only the root, which
		// the update read into the writer's own cache, is read again.
		m, host := newBudgetManager(t, budgetCapacity)
		w := begin(t, m, false)
		mustExec(t, w, "UPDATE big SET v = 'x' WHERE k >= 1 AND k <= 12") // three leaves
		commit(t, w)
		wantWriter(t, m, "a commit")
		r := begin(t, m, true)
		reads := host.Reads.Load()
		rows, err := r.Query("SELECT v FROM big WHERE k >= 1 AND k <= 12")
		if err != nil || rows.Len() != 12 || rows.Data[0][0].Text() != "x" {
			t.Fatalf("a reader after the commit: %v %v", rows, err)
		}
		if n := host.Reads.Load() - reads; n > 1 {
			t.Fatalf("a reader read %d pages from flash, want only the root", n)
		}
		commit(t, r)
	})
	t.Run("failed steal", func(t *testing.T) {
		// A deferred predecessor, and a successor whose dirty pages do not
		// fit the writer's cache: the update steals, and in journal mode
		// off a steal first commits the pending group — into a power cut,
		// which fails the statement and rewinds the successor. The pages
		// it updates were read first, into its cache and the table, so the
		// steal is the first thing the update asks of flash.
		m, _ := newBudgetManager(t, budgetCapacity)
		seed(t, m, 8, 0)
		w1done, w2 := deferredPair(t, m)
		const rows = "k < 80" // 20 leaves
		if _, _, err := w2.QueryRow("SELECT count(*) FROM big WHERE " + rows); err != nil {
			t.Fatal(err)
		}
		m.fs.Device().PowerCutAfter(1)
		if _, err := w2.Exec("UPDATE big SET v = 'y' WHERE " + rows); !errors.Is(err, nand.ErrPowerLost) {
			t.Fatalf("an update whose steal met the cut: %v, want the power cut", err)
		}
		if err := <-w1done; !errors.Is(err, nand.ErrPowerLost) {
			t.Fatalf("the deferred member of the group the steal closed: %v, want the power cut", err)
		}
		_ = w2.Rollback()
	})
}

// One writer and four readers at work beside each other, with a pool of
// two so the readers' returns evict and their cold opens go on: after
// every begin, statement and end, with the others held still, the table
// holds at most its frames and the writer's cache at most its CacheSize —
// (PoolCapacity + 1) × CacheSize pages for the database — and every scan
// counts every row. Fresh managers repeat the opening race.
// Run it under -race.
func TestWriterAndReadersShareOneBudget(t *testing.T) {
	const capacity, readers, managers, rounds = 2, 4, 4, 12
	const frames = capacity * budgetCache
	for range managers {
		m, _ := newBudgetManager(t, capacity)
		var gate sync.RWMutex
		check := func(who string) {
			if n := m.frames.Resident(); n > frames {
				t.Errorf("after %s: the table holds %d pages, over its %d frames", who, n, frames)
			}
			if n := m.db.Pager().CachedPages(); n > budgetCache {
				t.Errorf("after %s: the writer caches %d pages, over its %d", who, n, budgetCache)
			}
		}
		// step runs one operation of a client beside the others', then
		// checks the budget with every client stopped.
		step := func(i int, who string, op func() error) bool {
			gate.RLock()
			err := op()
			gate.RUnlock()
			gate.Lock()
			defer gate.Unlock()
			if err != nil {
				t.Errorf("client %d %s: %v", i, who, err)
				return false
			}
			check(fmt.Sprintf("client %d %s", i, who))
			return true
		}
		// client runs round n of client i: a session with a scan, and an
		// update if it writes.
		client := func(i, n int) bool {
			writer := i == readers
			var s *Session
			ok := step(i, "begin", func() (err error) {
				s, err = m.Begin(!writer)
				return err
			}) && step(i, "scan", func() error {
				row, _, err := s.QueryRow(budgetScan)
				if err == nil && row[0].Int() != 400 {
					err = fmt.Errorf("a scan counted %d rows of 400", row[0].Int())
				}
				return err
			})
			if ok && writer {
				ok = step(i, "update", func() error {
					_, err := s.Exec("UPDATE big SET v = 'x' WHERE k = ?", int64(n*37%400))
					return err
				})
			}
			return ok && step(i, "end", s.Commit)
		}
		var wg sync.WaitGroup
		for i := range readers + 1 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 1; n <= rounds; n++ {
					if !client(i, n) {
						return
					}
					runtime.Gosched() // on one processor the others must get their turn
				}
			}()
		}
		wg.Wait()
	}
}
