package mvcc

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
)

// longBudget is a busy budget the host cannot spin through: a poller
// alone on the one CPU of `go test -cpu 1` burns a virtual hour in ~20 ms,
// sooner than the scheduler's preemption lets the lock holder release.
const longBudget = 365 * 24 * time.Hour

// A budgeted BeginWith must poll through a writer's hold and acquire
// once the lock frees, counting its misses but not a timeout.
func TestBusyBudgetAcquiresAfterRelease(t *testing.T) {
	m := newMVCCManager(t)
	seed(t, m, 2, 0)
	w1, err := m.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		w2, err := m.BeginWith(false, nil, longBudget)
		if err == nil {
			err = w2.Commit()
		}
		got <- err
	}()
	// Wait until the poller has observed the busy lock at least once,
	// then release; it must acquire well inside the budget.
	for m.Stats.BusyRetries.Load() == 0 {
		runtime.Gosched()
	}
	if err := w1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("BeginWith inside budget: %v", err)
	}
	if m.Stats.BusyRetries.Load() == 0 {
		t.Error("no busy polls counted")
	}
	if m.Stats.BusyTimeouts.Load() != 0 {
		t.Errorf("BusyTimeouts = %d on a successful acquisition", m.Stats.BusyTimeouts.Load())
	}
}

// An expired budget returns ErrBusy (wrapped, still errors.Is-matchable)
// after burning at least the budget in virtual time.
func TestBusyBudgetExpires(t *testing.T) {
	m := newMVCCManager(t)
	seed(t, m, 2, 0)
	w1, err := m.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	clock := m.fs.Device().Clock()
	start := clock.Now()
	const budget = 2 * time.Millisecond
	_, err = m.BeginWith(false, nil, budget)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("expired busy timeout: got %v, want ErrBusy", err)
	}
	if elapsed := clock.Now() - start; elapsed < budget {
		t.Errorf("gave up after %v, before the %v budget expired", elapsed, budget)
	}
	if m.Stats.BusyTimeouts.Load() != 1 {
		t.Errorf("BusyTimeouts = %d, want 1", m.Stats.BusyTimeouts.Load())
	}
	if err := w1.Commit(); err != nil {
		t.Fatal(err)
	}
}

// MVCC readers ignore the busy budget entirely: they snapshot and
// return even while a writer holds the lock.
func TestBusyBudgetReaderNeverBlocks(t *testing.T) {
	m := newMVCCManager(t)
	seed(t, m, 2, 7)
	w1, err := m.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.BeginWith(true, nil, 0) // zero budget: would expire instantly if it polled
	if err != nil {
		t.Fatalf("reader blocked on the writer lock: %v", err)
	}
	if got := readAll(t, r)[0]; got != 7 {
		t.Fatalf("reader value = %d, want 7", got)
	}
	_ = r.Commit()
	if err := w1.Commit(); err != nil {
		t.Fatal(err)
	}
}

// A zero-budget begin must respect the FIFO queue: with a writer active
// and another already queued, it fails busy rather than jumping ahead,
// and the queued writer still acquires in order.
func TestZeroBudgetDoesNotJumpQueue(t *testing.T) {
	m := newMVCCManager(t)
	seed(t, m, 2, 0)
	w1, err := m.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan *Session, 1)
	go func() {
		w2, err := m.Begin(false)
		if err != nil {
			t.Errorf("queued writer: %v", err)
		}
		acquired <- w2
	}()
	for m.Stats.WriterWaits.Load() == 0 {
		runtime.Gosched()
	}
	if _, err := m.BeginWith(false, nil, 0); !errors.Is(err, ErrBusy) {
		t.Fatalf("zero-budget begin with a queued writer: got %v, want ErrBusy", err)
	}
	if err := w1.Commit(); err != nil {
		t.Fatal(err)
	}
	w2 := <-acquired
	if w2 == nil {
		t.Fatal("queued writer never acquired")
	}
	// The queue is empty now; a zero-budget begin succeeds only after w2
	// is done.
	if _, err := m.BeginWith(false, nil, 0); !errors.Is(err, ErrBusy) {
		t.Fatalf("zero-budget begin with active writer: got %v, want ErrBusy", err)
	}
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}
	w3, err := m.BeginWith(false, nil, 0)
	if err != nil {
		t.Fatalf("zero-budget begin on idle queue: %v", err)
	}
	if err := w3.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// A session begun with a busy budget — every serving-tier request that
// carries a deadline — is attributed to its client's IOStats like any
// other: the budget and the account are independent.
func TestBusyBudgetSessionIsAttributed(t *testing.T) {
	m := newMVCCManager(t)
	seed(t, m, 2, 0)
	var sc metrics.IOStats
	w, err := m.BeginWith(false, &sc, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sc.ID == 0 || w.ID() != sc.ID {
		t.Errorf("session id %d, client account id %d: want equal and non-zero", w.ID(), sc.ID)
	}
	if _, err := w.Exec("UPDATE kv SET v = 1"); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if sc.Host.DBWrites.Load() == 0 || sc.Host.Fsyncs.Load() == 0 {
		t.Errorf("budgeted writer's I/O not credited to its client: %d db writes, %d fsyncs",
			sc.Host.DBWrites.Load(), sc.Host.Fsyncs.Load())
	}
}

// A closed manager is not busy: a budgeted begin — zero budget included
// — must fail with ErrClosed, which callers do not retry.
func TestBusyBudgetOnClosedManager(t *testing.T) {
	m := newMVCCManager(t)
	seed(t, m, 1, 0)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []time.Duration{0, time.Millisecond, Unbounded} {
		if _, err := m.BeginWith(false, nil, budget); !errors.Is(err, ErrClosed) || errors.Is(err, ErrBusy) {
			t.Errorf("begin(budget %v) on a closed manager: got %v, want ErrClosed", budget, err)
		}
	}
}
