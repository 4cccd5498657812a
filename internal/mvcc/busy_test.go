package mvcc

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
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
		w2, err := m.BeginWith(false, longBudget)
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
	_, err = m.BeginWith(false, budget)
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
	r, err := m.BeginWith(true, 0) // zero budget: would expire instantly if it polled
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
	if _, err := m.BeginWith(false, 0); !errors.Is(err, ErrBusy) {
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
	if _, err := m.BeginWith(false, 0); !errors.Is(err, ErrBusy) {
		t.Fatalf("zero-budget begin with active writer: got %v, want ErrBusy", err)
	}
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}
	w3, err := m.BeginWith(false, 0)
	if err != nil {
		t.Fatalf("zero-budget begin on idle queue: %v", err)
	}
	if err := w3.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// A session begun with a busy budget — every serving-tier request that
// carries a deadline — is attributed like any other: its page writes and
// its fsync carry its session id.
func TestBusyBudgetSessionIsAttributed(t *testing.T) {
	m := newMVCCManager(t)
	seed(t, m, 2, 0)
	tr := trace.New()
	tr.Attach(m.fs.Device().Clock(), t.Name())
	m.fs.SetTracer(tr)
	w, err := m.BeginWith(false, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if w.ID() == 0 {
		t.Fatal("budgeted writer has session id 0")
	}
	if _, err := w.Exec("UPDATE kv SET v = 1"); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	attributed := map[trace.Kind]int{}
	for _, ev := range tr.Events() {
		if ev.Kind != trace.KFSWrite && ev.Kind != trace.KFSync {
			continue
		}
		if ev.Sess != w.ID() {
			t.Errorf("%v event carries session %d, want the budgeted writer's %d", ev.Kind, ev.Sess, w.ID())
		}
		attributed[ev.Kind]++
	}
	if attributed[trace.KFSWrite] == 0 || attributed[trace.KFSync] == 0 {
		t.Errorf("budgeted writer issued %d page writes and %d fsyncs, want both", attributed[trace.KFSWrite], attributed[trace.KFSync])
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
		if _, err := m.BeginWith(false, budget); !errors.Is(err, ErrClosed) || errors.Is(err, ErrBusy) {
			t.Errorf("begin(budget %v) on a closed manager: got %v, want ErrClosed", budget, err)
		}
	}
}
