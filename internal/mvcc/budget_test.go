package mvcc

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/nand"
	"repro/internal/sqlite/pager"
)

// The budget tests' manager: 8-page connections whose pool of 4 shares a
// 32-page budget, over a table of about 100 one-KB leaves, so any scan
// fills whatever cache it runs in.
const (
	budgetCache    = 8
	budgetCapacity = 4
	budgetPages    = budgetCache * budgetCapacity
	budgetScan     = "SELECT count(*) FROM big"
)

func newBudgetManager(t *testing.T, capacity int) *Manager {
	t.Helper()
	m, err := NewManager(newStack(t), "test.db",
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
	return m
}

// mustScan reads every page of the big table through s.
func mustScan(t *testing.T, s *Session) {
	t.Helper()
	if _, _, err := s.QueryRow(budgetScan); err != nil {
		t.Fatal(err)
	}
}

// With no reader live the writer caches its CacheSize plus the whole
// budget the readers share. Once a reader is live the writer is back to
// its CacheSize: at once if no write transaction is open (the reader
// takes the pages back), else at the writer's next statement or its end,
// and at every begin after that. A cut at a statement that steals a dirty
// page, and fails to, fails the statement.
func TestWriterBorrowsIdleBudget(t *testing.T) {
	wantWriter := func(t *testing.T, m *Manager, limit int, full bool, what string) {
		t.Helper()
		pg := m.db.Pager()
		if pg.CacheSize() != limit || pg.CachedPages() > limit || full && pg.CachedPages() != limit {
			t.Fatalf("%s: writer's limit %d holding %d pages, want limit %d", what, pg.CacheSize(), pg.CachedPages(), limit)
		}
	}
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

	t.Run("idle", func(t *testing.T) {
		m := newBudgetManager(t, budgetCapacity)
		w := begin(t, m, false)
		mustScan(t, w)
		wantWriter(t, m, budgetCache+budgetPages, true, "no reader live")
		commit(t, w)
		wantWriter(t, m, budgetCache+budgetPages, true, "ended with no reader live")
		r := begin(t, m, true)
		wantWriter(t, m, budgetCache, false, "idle when a reader went live")
		if got := r.db.Pager().CacheSize(); got != budgetPages {
			t.Fatalf("the lone reader's limit is %d, want the whole budget of %d", got, budgetPages)
		}
		commit(t, r) // parked: still live
		w = begin(t, m, false)
		mustScan(t, w)
		wantWriter(t, m, budgetCache, true, "begun beside a parked reader")
		commit(t, w)
	})
	t.Run("statement", func(t *testing.T) {
		m := newBudgetManager(t, budgetCapacity)
		w := begin(t, m, false)
		mustScan(t, w)
		r := begin(t, m, true)
		wantWriter(t, m, budgetCache+budgetPages, true, "in a transaction when a reader went live")
		mustScan(t, w)
		wantWriter(t, m, budgetCache, true, "at its next statement")
		commit(t, w)
		commit(t, r)
	})
	t.Run("end", func(t *testing.T) {
		m := newBudgetManager(t, budgetCapacity)
		w := begin(t, m, false)
		mustScan(t, w)
		r := begin(t, m, true)
		commit(t, w)
		wantWriter(t, m, budgetCache, false, "at the end of the transaction a reader went live in")
		commit(t, r)
		w = begin(t, m, false)
		wantWriter(t, m, budgetCache, false, "at its next begin")
		commit(t, w)
	})
	t.Run("failed steal", func(t *testing.T) {
		// A deferred predecessor, and a successor whose dirty pages fit
		// only its borrowed cache: the cut steals, and in journal mode off
		// a steal first commits the pending group — into a power cut,
		// which rewinds the successor's transaction. Its statement reads
		// only a page still cached, so it would succeed, outside any
		// transaction, had the cut's failure been dropped.
		m := newBudgetManager(t, budgetCapacity)
		seed(t, m, 8, 0)
		w1done, w2 := deferredPair(t, m)
		mustExec(t, w2, "UPDATE big SET v = 'y' WHERE k < 80")
		if pages := m.db.Pager().CachedPages(); pages <= budgetCache {
			t.Fatalf("the update left %d pages cached, want more than the %d the cut keeps", pages, budgetCache)
		}
		select {
		case err := <-w1done:
			t.Fatalf("the group closed (%v) before the cut: the update stole", err)
		default:
		}
		const q = "SELECT v FROM big WHERE k = 399" // a page the group did not write
		if _, _, err := w2.QueryRow(q); err != nil {
			t.Fatal(err)
		}
		r := begin(t, m, true)
		m.fs.Device().PowerCutAfter(1)
		if _, _, err := w2.QueryRow(q); !errors.Is(err, nand.ErrPowerLost) {
			t.Fatalf("a statement whose cut failed to steal: %v, want the power cut", err)
		}
		if err := <-w1done; !errors.Is(err, nand.ErrPowerLost) {
			t.Fatalf("the deferred member of the group the steal closed: %v, want the power cut", err)
		}
		_, _ = w2.Rollback(), r.Commit()
	})
}

// One writer and four readers resize against each other. The writer
// borrows the whole budget in a first transaction of its own and must
// give it back when the first reader goes live; with a pool of two the
// readers' returns evict and their cold opens adopt, so the live count
// and every share keep moving. After every begin, statement and end — the
// readers' checkouts and returns among them — the others are held still
// and the database must cache at most max(budget, L × CacheSize) +
// CacheSize pages, plus what connections last sized before the share
// moved still hold above it. A connection sized since then must be at its
// share, and a writer with no transaction open at most at its share.
// Fresh managers repeat the opening race. Run it under -race.
func TestWriterAndReadersShareOneBudget(t *testing.T) {
	const capacity, readers, managers, rounds = 2, 4, 4, 12
	const budget = capacity * budgetCache
	for range managers {
		m := newBudgetManager(t, capacity)
		var (
			gate  sync.RWMutex
			open  [readers + 1]*Session // each client's open session, the writer's last
			seen  [readers + 1]int      // the checks made when each client's last operation began
			moved int                   // the check that last saw the live count move
			prev  [4]int64              // what that check saw: live, misses, evictions, invalidations
			made  int                   // checks made
		)
		check := func(who string) {
			made++
			live, st := m.pool.Live(), m.pool.Stats()
			if now := [4]int64{int64(live), st.Misses, st.Evictions, st.Invalidations}; now != prev {
				prev, moved = now, made
			}
			share := max(budgetCache, budget/max(live, 1))
			wshare := budgetCache + budget - min(budget, live*share)
			total, lag := m.pool.CachePages(), 0
			for i, s := range open {
				want, pg := share, m.db.Pager()
				switch {
				case i == readers && s == nil:
					if pg.CacheSize() > wshare {
						t.Errorf("after %s: the idle writer's limit is %d, its share of %d live %d", who, pg.CacheSize(), live, wshare)
					}
				case s == nil:
					continue
				case i == readers:
					want = wshare
				default:
					pg = s.db.Pager()
				}
				total += pg.CachedPages()
				if limit := pg.CacheSize(); limit != want && s != nil {
					if seen[i] >= moved {
						t.Errorf("after %s: client %d, sized since the share moved, has limit %d, its share of %d live %d", who, i, limit, live, want)
					}
					lag += max(0, limit-want)
				}
			}
			if bound := max(budget, live*budgetCache) + budgetCache; total > bound+lag {
				t.Errorf("after %s: %d live readers and the writer cache %d pages, over %d + %d lagging", who, live, total, bound, lag)
			}
		}
		// step runs one operation of client i beside the others', then
		// checks the budget with every client stopped.
		step := func(i int, who string, op func() error) bool {
			gate.RLock()
			began := made
			err := op()
			gate.RUnlock()
			gate.Lock()
			defer gate.Unlock()
			seen[i] = began
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
				open[i] = s
				return err
			}) && step(i, "scan", func() error { _, _, err := s.QueryRow(budgetScan); return err })
			if ok && writer {
				ok = step(i, "update", func() error {
					_, err := s.Exec("UPDATE big SET v = 'x' WHERE k = ?", int64(n*37%400))
					return err
				})
			}
			return ok && step(i, "end", func() error { open[i] = nil; return s.Commit() })
		}
		if !client(readers, 0) {
			return
		}
		var (
			wg       sync.WaitGroup
			first    sync.Once
			readerIn = make(chan struct{})
		)
		for i := range open {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 1; n <= rounds; n++ {
					if i == readers && n == 1 {
						<-readerIn // the writer idles with the budget until a reader is live
					}
					if !client(i, n) {
						return
					}
					if i < readers {
						first.Do(func() { close(readerIn) })
					}
					runtime.Gosched() // on one processor the others must get their turn
				}
			}()
		}
		wg.Wait()
	}
}
