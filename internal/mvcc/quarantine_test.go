package mvcc

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/simfs"
	"repro/internal/sqlite/pager"
	"repro/internal/storage"
)

// newMultiUnitManager builds an MVCC manager over a 4-channel array so
// a unit can be quarantined while the rest keep serving.
func newMultiUnitManager(t *testing.T) *Manager {
	t.Helper()
	prof := storage.OpenSSD()
	prof.Nand.Channels = 4
	prof.Nand.Ways = 1
	prof.Channels = 4
	prof.Nand.Blocks = 512
	prof.Nand.PagesPerBlock = 32
	prof.Nand.PageSize = 1024
	dev, err := storage.New(prof, simclock.New(), storage.Options{Transactional: true})
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := simfs.New(dev, simfs.OffXFTL, &metrics.HostCounters{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(fsys, "test.db", Options{Mode: MVCC, Journal: pager.Off, CacheSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// TestBusyBudgetRacesQuarantine trips a unit quarantine while a
// budgeted BeginInto poller is spinning on a held writer lock. The
// firmware's quarantine drain (relocating live pages under the queue
// lock) must not deadlock against the poller or the writer's commit,
// the writer lock must come out of the race released exactly once, and
// the manager must keep serving write transactions afterwards.
func TestBusyBudgetRacesQuarantine(t *testing.T) {
	m := newMultiUnitManager(t)
	seed(t, m, 8, 0)
	dev := m.fs.Device()

	w1, err := m.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		s := new(Session)
		err := m.BeginInto(s, false, longBudget)
		if err == nil {
			if _, err = s.Exec("UPDATE kv SET v = 1 WHERE k = 0"); err == nil {
				err = s.Commit()
			} else {
				_ = s.Rollback()
			}
		}
		got <- err
	}()
	// Let the poller observe the busy lock, then quarantine a unit out
	// from under it: the drain relocates live pages while the poller
	// keeps spinning and the writer commits.
	for m.Stats.BusyRetries.Load() == 0 {
		runtime.Gosched()
	}
	if err := dev.QuarantineUnit(0); err != nil {
		t.Fatalf("quarantine during poll: %v", err)
	}
	if err := w1.Commit(); err != nil {
		t.Fatalf("commit during quarantine: %v", err)
	}
	if err := <-got; err != nil {
		t.Fatalf("poller after quarantine trip: %v", err)
	}

	// The lock came out of the race free: a fresh writer acquires it
	// immediately and commits against the reduced array.
	w2, err := m.Begin(false)
	if err != nil {
		t.Fatalf("begin after race: %v", err)
	}
	if _, err := w2.Exec("UPDATE kv SET v = 2 WHERE k = 1"); err != nil {
		t.Fatalf("write after race: %v", err)
	}
	if err := w2.Commit(); err != nil {
		t.Fatalf("commit after race: %v", err)
	}

	// And reads see the committed state.
	r, err := m.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	vals := readAll(t, r)
	if vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("post-race values = %v, want [1 2 ...]", vals)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestBusyBudgetExpiresDuringQuarantine is the expired-budget
// leg: the budget burns out while the lock stays held across a
// quarantine trip. The failed acquire must not release anything — the
// holder's commit must still succeed, exactly once.
func TestBusyBudgetExpiresDuringQuarantine(t *testing.T) {
	m := newMultiUnitManager(t)
	seed(t, m, 4, 0)
	dev := m.fs.Device()

	w1, err := m.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.QuarantineUnit(0); err != nil {
		t.Fatalf("quarantine: %v", err)
	}
	err = m.BeginInto(new(Session), false, 2*time.Millisecond)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("expired acquire = %v, want ErrBusy", err)
	}
	if m.Stats.BusyTimeouts.Load() == 0 {
		t.Fatal("busy timeout not counted")
	}
	// The holder still owns the lock (no double-release by the failed
	// acquire): its commit succeeds and frees it for the next writer.
	if _, err := w1.Exec("UPDATE kv SET v = 7 WHERE k = 0"); err != nil {
		t.Fatalf("holder write: %v", err)
	}
	if err := w1.Commit(); err != nil {
		t.Fatalf("holder commit: %v", err)
	}
	w2 := new(Session)
	if err := m.BeginInto(w2, false, time.Second); err != nil {
		t.Fatalf("begin after expiry: %v", err)
	}
	if err := w2.Rollback(); err != nil {
		t.Fatal(err)
	}
}
