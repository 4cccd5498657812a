package ncq

import (
	"testing"

	"repro/internal/trace"
)

// The tracing hook must stay out of the submit hot path when disabled:
// one nil pointer compare, zero allocations. This is the guard the
// tracer's documentation promises.
func TestSubmitNoAllocsWhenTracingDisabled(t *testing.T) {
	_, q := newQueue(4, 8)
	r := &Request{Op: OpWrite, LPN: 3}
	// Warm up internal slices/maps so steady state is measured.
	for i := 0; i < 32; i++ {
		if err := q.SubmitWait(r); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := q.SubmitWait(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SubmitWait allocates %.1f objects/op with tracing disabled, want 0", allocs)
	}
}

// Request-id attribution rides the same disabled-tracing fast path:
// carrying a Sess and Req must not reintroduce allocations (the device
// hands them to the chip as plain stores; the queue only carries them).
func TestSubmitNoAllocsWithReqID(t *testing.T) {
	_, q := newQueue(4, 8)
	r := &Request{Op: OpWrite, LPN: 3, Sess: 9, Req: 7}
	for i := 0; i < 32; i++ {
		if err := q.SubmitWait(r); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := q.SubmitWait(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SubmitWait allocates %.1f objects/op with ReqID set and tracing disabled, want 0", allocs)
	}
}

// With a tracer attached, every submitted command must produce exactly
// one KCmd event carrying the request's attribution.
func TestSubmitRecordsCmdEvents(t *testing.T) {
	clk, q := newQueue(4, 8)
	tr := trace.New()
	tr.Attach(clk, "ncq-test")
	q.SetTracer(tr)
	const n = 10
	for i := 0; i < n; i++ {
		r := &Request{Op: OpWrite, LPN: int64(i), Sess: 7, Origin: trace.OHost}
		if err := q.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	q.Drain()
	evs := tr.Events()
	if len(evs) != n {
		t.Fatalf("recorded %d events, want %d", len(evs), n)
	}
	for _, ev := range evs {
		if ev.Layer != trace.LNCQ || ev.Kind != trace.KCmd {
			t.Errorf("event %+v: want NCQ/KCmd", ev)
		}
		if ev.Sess != 7 {
			t.Errorf("event sess %d, want 7", ev.Sess)
		}
		if ev.Origin != trace.OHost {
			t.Errorf("event origin %v, want host", ev.Origin)
		}
		if ev.Dur <= 0 {
			t.Errorf("event duration %v, want > 0", ev.Dur)
		}
		if ev.Disp < ev.Start || ev.Disp > ev.Start+ev.Dur {
			t.Errorf("dispatch %v outside [%v, %v]", ev.Disp, ev.Start, ev.Start+ev.Dur)
		}
	}
}

// A Request its caller builds on the stack stays there: the queue runs it
// from a slot of its own, copying it in and the outcome back out, so
// handing its address to the executor and the unit hint — func values,
// which the compiler cannot see through — does not move it to the heap.
// The request is built inside the measured function, as the device-level
// callers build theirs; the guards above hand in one made outside it, and
// would not see the escape.
func TestSubmitKeepsTheCallersRequestOnItsStack(t *testing.T) {
	_, q := newQueue(4, 8)
	data := make([]byte, 16)
	lpn := int64(0)
	check := func(what string, r *Request, err error) {
		if err != nil || r.Done <= r.Submitted {
			t.Fatalf("%s lpn %d: done %v submitted %v: %v", what, r.LPN, r.Done, r.Submitted, err)
		}
	}
	for _, c := range []struct {
		what string
		run  func()
	}{
		{"Submit", func() {
			lpn = (lpn + 1) % 64
			r := Request{Op: OpWrite, LPN: lpn, Data: data}
			err := q.Submit(&r)
			check("Submit", &r, err)
		}},
		{"SubmitWait", func() {
			lpn = (lpn + 1) % 64
			r := Request{Op: OpWrite, LPN: lpn, Data: data}
			err := q.SubmitWait(&r)
			check("SubmitWait", &r, err)
		}},
	} {
		for i := 0; i < 32; i++ {
			c.run()
		}
		if allocs := testing.AllocsPerRun(100, c.run); allocs != 0 {
			t.Errorf("%s allocates %.1f objects for a request built on the caller's stack, want 0", c.what, allocs)
		}
	}
}
