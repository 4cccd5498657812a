package ncq

import (
	"testing"
	"time"

	"repro/internal/nand"
	"repro/internal/simclock"
)

const (
	ctrlCost = 100 * time.Microsecond
	nandCost = 1 * time.Millisecond
)

// fakeDev charges a fixed controller cost plus one NAND charge on the
// unit derived from the request's LPN, mimicking the device executor.
func fakeDev(sched *Scheduler) Executor {
	return func(r *Request) error {
		sched.ChargeController(ctrlCost)
		switch r.Op {
		case OpBarrier:
			sched.ChargeAll(nandCost)
		default:
			sched.ChargeUnit(int(r.LPN), nandCost)
		}
		return nil
	}
}

func newQueue(units, depth int) (*simclock.Clock, *Queue) {
	clk := simclock.New()
	sched := NewScheduler(clk, units)
	q := New(clk, sched, depth, fakeDev(sched))
	return clk, q
}

func TestSubmitWaitSequentialCost(t *testing.T) {
	clk, q := newQueue(4, 32)
	r := &Request{Op: OpWrite, LPN: 0}
	if err := q.SubmitWait(r); err != nil {
		t.Fatal(err)
	}
	// Depth-1: controller then NAND, strictly sequential.
	if want := ctrlCost + nandCost; clk.Now() != want {
		t.Errorf("elapsed %v, want %v", clk.Now(), want)
	}
	if q.InFlight() != 0 {
		t.Errorf("InFlight = %d after SubmitWait", q.InFlight())
	}
}

func TestOutOfOrderCompletion(t *testing.T) {
	clk, q := newQueue(4, 32)
	// Fill unit 1 so the second command lands on a busy unit while the
	// third uses an idle one and completes first.
	a := &Request{Op: OpWrite, LPN: 1}
	b := &Request{Op: OpWrite, LPN: 1 + 4} // same unit as a
	c := &Request{Op: OpWrite, LPN: 2}     // idle unit
	for _, r := range []*Request{a, b, c} {
		if err := q.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if clk.Now() != 0 {
		t.Errorf("clock advanced to %v on async submits", clk.Now())
	}
	if !(c.Done < b.Done) {
		t.Errorf("idle-unit command finished at %v, busy-unit at %v; want out-of-order completion", c.Done, b.Done)
	}
	q.Drain()
	if clk.Now() != b.Done {
		t.Errorf("drained clock %v, want last completion %v", clk.Now(), b.Done)
	}
}

func TestDepthGating(t *testing.T) {
	clk, q := newQueue(8, 2)
	var reqs []*Request
	for i := 0; i < 3; i++ {
		r := &Request{Op: OpWrite, LPN: int64(i)}
		reqs = append(reqs, r)
		if err := q.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	// The third submit found the queue full and had to wait for the
	// earliest completion before issuing.
	if clk.Now() == 0 {
		t.Error("queue-full submit did not advance the clock")
	}
	if reqs[2].Started < reqs[0].Done {
		t.Errorf("third command started %v before a slot freed at %v", reqs[2].Started, reqs[0].Done)
	}
	if q.InFlight() > 2 {
		t.Errorf("InFlight = %d, want <= depth 2", q.InFlight())
	}
}

func TestBarrierFencesQueue(t *testing.T) {
	clk, q := newQueue(4, 32)
	a := &Request{Op: OpWrite, LPN: 0}
	b := &Request{Op: OpWrite, LPN: 1}
	bar := &Request{Op: OpBarrier}
	after := &Request{Op: OpWrite, LPN: 2}
	for _, r := range []*Request{a, b, bar, after} {
		if err := q.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if bar.Started < a.Done || bar.Started < b.Done {
		t.Errorf("barrier started %v before outstanding completions %v/%v", bar.Started, a.Done, b.Done)
	}
	if after.Started < bar.Done {
		t.Errorf("post-barrier command started %v before barrier completed %v", after.Started, bar.Done)
	}
	if clk.Now() < bar.Done {
		t.Errorf("barrier did not drain the clock: %v < %v", clk.Now(), bar.Done)
	}
}

func TestPerLPNOrdering(t *testing.T) {
	_, q := newQueue(8, 32)
	a := &Request{Op: OpWrite, LPN: 5}
	b := &Request{Op: OpRead, LPN: 5, Buf: nil}
	other := &Request{Op: OpWrite, LPN: 6}
	for _, r := range []*Request{a, b, other} {
		if err := q.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if b.Started < a.Done {
		t.Errorf("same-LPN successor started %v before predecessor completed %v", b.Started, a.Done)
	}
	if other.Started >= a.Done {
		t.Errorf("unrelated LPN was gated: started %v, gate %v", other.Started, a.Done)
	}
}

// Throughput scales with units at a deep queue, and with queue depth on
// many units: depth 1 serialises the eight units a deep queue overlaps.
func TestThroughputScalesWithUnits(t *testing.T) {
	run := func(units, depth int) (time.Duration, int) {
		clk, q := newQueue(units, depth)
		for i := 0; i < 64; i++ {
			if err := q.Submit(&Request{Op: OpWrite, LPN: int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		inFlight := q.InFlight() // occupancy before the drain
		q.Drain()
		return clk.Now(), inFlight
	}
	one, _ := run(1, 32)
	eight, deepIn := run(8, 32)
	if ratio := float64(one) / float64(eight); ratio < 3 {
		t.Errorf("8-unit speedup %.2fx, want >= 3x (1 unit: %v, 8 units: %v)", ratio, one, eight)
	}
	shallow, shallowIn := run(8, 1)
	if ratio := float64(shallow) / float64(eight); ratio < 3 {
		t.Errorf("8-unit depth-32 speedup over depth 1 %.2fx, want >= 3x (qd1: %v, qd32: %v)", ratio, shallow, eight)
	}
	if deepIn <= 1 || shallowIn > 1 {
		t.Errorf("occupancy before the drain: qd1 %d, qd32 %d; want qd32 past 1, qd1 at most 1", shallowIn, deepIn)
	}
}

func TestChargeAllOccupiesEveryUnit(t *testing.T) {
	clk := simclock.New()
	sched := NewScheduler(clk, 4)
	sched.Begin(0)
	sched.ChargeUnit(2, nandCost)
	sched.ChargeAll(3 * time.Millisecond)
	end := sched.End()
	if want := nandCost + 3*time.Millisecond; end != want {
		t.Errorf("erase after busy unit completed at %v, want %v", end, want)
	}
	for u := 0; u < 4; u++ {
		if sched.units[u] != end {
			t.Errorf("unit %d busy-until %v, want %v", u, sched.units[u], end)
		}
	}
}

// Every NAND charge belongs to a command window: one that lands with no
// command open is a bug, and panics rather than pass unaccounted.
func TestStrayChargePanics(t *testing.T) {
	sched := NewScheduler(simclock.New(), 4)
	for name, charge := range map[string]func(){
		"unit":       func() { sched.ChargeUnit(0, nandCost) },
		"all":        func() { sched.ChargeAll(nandCost) },
		"controller": func() { sched.ChargeController(nandCost) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("stray %s charge did not panic", name)
				}
			}()
			charge()
		}()
	}
}

func TestPowerLossClearsQueue(t *testing.T) {
	clk := simclock.New()
	sched := NewScheduler(clk, 4)
	fail := false
	q := New(clk, sched, 32, func(r *Request) error {
		sched.ChargeUnit(int(r.LPN), nandCost)
		if fail {
			return nand.ErrPowerLost
		}
		return nil
	})
	if err := q.Submit(&Request{Op: OpWrite, LPN: 0}); err != nil {
		t.Fatal(err)
	}
	fail = true
	before := clk.Now()
	if err := q.Submit(&Request{Op: OpWrite, LPN: 1}); err == nil {
		t.Fatal("expected power-loss error")
	}
	if q.InFlight() != 0 {
		t.Errorf("InFlight = %d after power loss", q.InFlight())
	}
	if clk.Now() != before {
		t.Errorf("clock advanced %v across power loss", clk.Now()-before)
	}
}

func TestLatencyHistogramsPopulate(t *testing.T) {
	_, q := newQueue(4, 8)
	for i := 0; i < 16; i++ {
		if err := q.Submit(&Request{Op: OpWrite, LPN: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	inFlight := q.InFlight()
	q.Drain()
	ws := q.WriteLat.Snapshot()
	if ws.Count != 16 {
		t.Fatalf("write hist count = %d, want 16", ws.Count)
	}
	if ws.P50 <= 0 || ws.P99 < ws.P50 || ws.Max < ws.P99 {
		t.Errorf("implausible percentiles: %v", ws)
	}
	if inFlight <= 1 {
		t.Errorf("%d commands in flight before the drain, want > 1 at saturation", inFlight)
	}
}
