package storage

import (
	"math/rand"
	"testing"

	"repro/internal/ncq"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// tracedDev builds a small device with a tracer attached.
func tracedDev(t *testing.T, transactional bool) (*Device, *trace.Tracer) {
	t.Helper()
	d, err := New(smallProfile(), simclock.New(), Options{Transactional: transactional})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	tr.Attach(d.Clock(), "attribution")
	d.SetTracer(tr)
	return d, tr
}

// nandOps runs fn and returns the NAND events it recorded.
func nandOps(t *testing.T, tr *trace.Tracer, fn func() error) []trace.Event {
	t.Helper()
	n := tr.Len()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	var out []trace.Event
	for _, ev := range tr.Events()[n:] {
		if ev.Layer == trace.LNAND {
			out = append(out, ev)
		}
	}
	return out
}

// count reports how many events are of kind k under origin o.
func count(evs []trace.Event, k trace.Kind, o trace.Origin) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == k && ev.Origin == o {
			n++
		}
	}
	return n
}

// Every NAND operation a command causes carries the command's session
// and request, and the origin of the work that issued it: the host's own
// program is host, the GC it triggers is gc down to the copy-back reads
// and the erase, a barrier's map-group flush is meta, an X-FTL commit's
// flush is commit and a restart's is recovery.
func TestNANDWorkCarriesItsCommandsAttribution(t *testing.T) {
	sameCmd := func(t *testing.T, evs []trace.Event, sess, req uint64) {
		t.Helper()
		for _, ev := range evs {
			if ev.Sess != sess || ev.Req != req {
				t.Fatalf("%v %v event carries sess %d req %d, want %d %d", ev.Kind, ev.Origin, ev.Sess, ev.Req, sess, req)
			}
		}
	}

	t.Run("write triggering gc", func(t *testing.T) {
		d, tr := tracedDev(t, false)
		data := devPage(d, 0x5A)
		span := d.LogicalPages() * 3 / 4
		rng := rand.New(rand.NewSource(1))
		for i := int64(0); ; i++ {
			if i > 20*span {
				t.Fatal("no write triggered a GC")
			}
			sess, req := uint64(i%5+1), uint64(i+100)
			r := ncq.Request{Op: ncq.OpWrite, LPN: rng.Int63n(span), Data: data, Sess: sess, Req: req}
			evs := nandOps(t, tr, func() error { return do(d, r) })
			sameCmd(t, evs, sess, req)
			if n := count(evs, trace.KNandProg, trace.OHost); n != 1 {
				t.Fatalf("%d host programs, want 1", n)
			}
			// Wait for a GC that copies: its victim still held live pages.
			if count(evs, trace.KNandErase, trace.OGC) == 0 || count(evs, trace.KNandRead, trace.OGC) == 0 {
				continue
			}
			if count(evs, trace.KNandProg, trace.OGC) == 0 {
				t.Error("GC copy-back programs not attributed gc")
			}
			if n := len(evs) - count(evs, trace.KNandProg, trace.OHost); n != count(evs, trace.KNandRead, trace.OGC)+
				count(evs, trace.KNandProg, trace.OGC)+count(evs, trace.KNandErase, trace.OGC) {
				t.Error("GC work outside origin gc")
			}
			return
		}
	})

	t.Run("barrier", func(t *testing.T) {
		d, tr := tracedDev(t, false)
		data := devPage(d, 0x11)
		for lpn := range int64(8) {
			if err := do(d, ncq.Request{Op: ncq.OpWrite, LPN: lpn, Data: data}); err != nil {
				t.Fatal(err)
			}
		}
		evs := nandOps(t, tr, func() error { return do(d, ncq.Request{Op: ncq.OpBarrier, Sess: 3, Req: 30}) })
		sameCmd(t, evs, 3, 30)
		if count(evs, trace.KNandProg, trace.OMeta) == 0 || count(evs, trace.KNandProg, trace.OMeta) != len(evs) {
			t.Errorf("barrier: %d of %d NAND ops are meta programs, want all and at least one", count(evs, trace.KNandProg, trace.OMeta), len(evs))
		}
	})

	t.Run("commit", func(t *testing.T) {
		d, tr := tracedDev(t, true)
		data := devPage(d, 0x22)
		for lpn := range int64(8) {
			if err := do(d, ncq.Request{Op: ncq.OpWriteTx, TID: 1, LPN: lpn, Data: data}); err != nil {
				t.Fatal(err)
			}
		}
		evs := nandOps(t, tr, func() error { return do(d, ncq.Request{Op: ncq.OpCommit, TID: 1, Sess: 4, Req: 40}) })
		sameCmd(t, evs, 4, 40)
		if count(evs, trace.KNandProg, trace.OCommit) == 0 || count(evs, trace.KNandProg, trace.OCommit) != len(evs) {
			t.Errorf("commit: %d of %d NAND ops are commit programs, want all and at least one", count(evs, trace.KNandProg, trace.OCommit), len(evs))
		}
	})

	t.Run("restart", func(t *testing.T) {
		d, tr := tracedDev(t, true)
		data := devPage(d, 0x33)
		for lpn := range int64(8) {
			if err := do(d, ncq.Request{Op: ncq.OpWriteTx, TID: 1, LPN: lpn, Data: data}); err != nil {
				t.Fatal(err)
			}
		}
		if err := do(d, ncq.Request{Op: ncq.OpCommit, TID: 1}); err != nil {
			t.Fatal(err)
		}
		d.PowerCut()
		evs := nandOps(t, tr, d.Restart)
		sameCmd(t, evs, 0, 0)
		if count(evs, trace.KNandProg, trace.ORecovery) == 0 {
			t.Error("restart programmed nothing under recovery")
		}
		for _, ev := range evs {
			if ev.Origin != trace.ORecovery && ev.Origin != trace.OGC {
				t.Errorf("restart %v carries origin %v", ev.Kind, ev.Origin)
			}
		}
	})
}

// A device recovers inside one command window, where the clock stands
// still: the recovery's duration, in LastRecovery and in the KXRecover
// span, is the window's span, which ends with the last NAND op it ran.
func TestRecoveryTimedAcrossItsWindow(t *testing.T) {
	d, tr := tracedDev(t, true)
	data := devPage(d, 0x44)
	for lpn := range int64(8) {
		if err := do(d, ncq.Request{Op: ncq.OpWriteTx, TID: 1, LPN: lpn, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if err := do(d, ncq.Request{Op: ncq.OpCommit, TID: 1}); err != nil {
		t.Fatal(err)
	}
	d.PowerCut()
	start, n := d.Clock().Now(), tr.Len()
	evs := nandOps(t, tr, d.Restart)
	took, last := d.Clock().Now()-start, start
	for _, ev := range evs {
		last = max(last, ev.Start+ev.Dur)
	}
	if took <= 0 || last != start+took {
		t.Fatalf("recovery took %v, its last NAND op ended %v after it began", took, last-start)
	}
	if got := d.LastRecovery().Duration; got != took {
		t.Errorf("LastRecovery().Duration = %v, want the window's %v", got, took)
	}
	spans := 0
	for _, ev := range tr.Events()[n:] {
		if ev.Kind == trace.KXRecover {
			spans++
			if ev.Start != start || ev.Dur != took {
				t.Errorf("KXRecover span [%v, +%v), want [%v, +%v)", ev.Start, ev.Dur, start, took)
			}
		}
	}
	if spans != 1 {
		t.Errorf("%d KXRecover spans, want 1", spans)
	}
}
