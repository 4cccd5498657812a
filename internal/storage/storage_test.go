package storage

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/ftl"
	"repro/internal/ncq"
	"repro/internal/simclock"
)

// smallProfile shrinks the device so tests stay fast.
func smallProfile() Profile {
	p := OpenSSD()
	p.Nand.Blocks = 32
	p.Nand.PagesPerBlock = 16
	p.Nand.PageSize = 512
	return p
}

// do runs one command to completion at depth 1 — the one way tests
// reach the device, same as every caller: through its queue.
func do(d *Device, r ncq.Request) error { return d.Queue().SubmitWait(&r) }

func newDev(t *testing.T, transactional bool) *Device {
	t.Helper()
	d, err := New(smallProfile(), simclock.New(), Options{Transactional: transactional})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func devPage(d *Device, fill byte) []byte {
	b := make([]byte, d.PageSize())
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestProfilesAreDistinct(t *testing.T) {
	o, s := OpenSSD(), S830()
	if o.Name == s.Name {
		t.Error("profiles share a name")
	}
	if s.CmdOverhead >= o.CmdOverhead {
		t.Error("S830 should have a faster controller than OpenSSD")
	}
	if s.Nand.ProgLatency >= o.Nand.ProgLatency {
		t.Error("S830 should have a faster program path")
	}
	if s.Channels <= o.Channels {
		t.Error("S830 should expose more parallelism")
	}
}

func TestBaselineReadWrite(t *testing.T) {
	d := newDev(t, false)
	if d.Transactional() {
		t.Fatal("baseline device claims to be transactional")
	}
	if err := do(d, ncq.Request{Op: ncq.OpWrite, LPN: 5, Data: devPage(d, 0x33)}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.PageSize())
	if err := do(d, ncq.Request{Op: ncq.OpRead, LPN: 5, Buf: buf}); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x33 {
		t.Errorf("read = %x, want 0x33", buf[0])
	}
}

func TestBaselineRejectsTransactionalCommands(t *testing.T) {
	d := newDev(t, false)
	buf := make([]byte, d.PageSize())
	if err := do(d, ncq.Request{Op: ncq.OpWriteTx, TID: 1, LPN: 0, Data: devPage(d, 1)}); !errors.Is(err, ErrNotTransactional) {
		t.Errorf("WriteTx = %v, want ErrNotTransactional", err)
	}
	if err := do(d, ncq.Request{Op: ncq.OpReadTx, TID: 1, LPN: 0, Buf: buf}); !errors.Is(err, ErrNotTransactional) {
		t.Errorf("ReadTx = %v, want ErrNotTransactional", err)
	}
	if err := do(d, ncq.Request{Op: ncq.OpCommit, TID: 1}); !errors.Is(err, ErrNotTransactional) {
		t.Errorf("Commit = %v, want ErrNotTransactional", err)
	}
	if err := do(d, ncq.Request{Op: ncq.OpAbort, TID: 1}); !errors.Is(err, ErrNotTransactional) {
		t.Errorf("Abort = %v, want ErrNotTransactional", err)
	}
}

func TestTransactionalLifecycle(t *testing.T) {
	d := newDev(t, true)
	if err := do(d, ncq.Request{Op: ncq.OpWriteTx, TID: 7, LPN: 3, Data: devPage(d, 1)}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.PageSize())
	if err := do(d, ncq.Request{Op: ncq.OpRead, LPN: 3, Buf: buf}); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Error("uncommitted write visible to plain read")
	}
	if err := do(d, ncq.Request{Op: ncq.OpCommit, TID: 7}); err != nil {
		t.Fatal(err)
	}
	if err := do(d, ncq.Request{Op: ncq.OpRead, LPN: 3, Buf: buf}); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Error("committed write not visible")
	}
}

func TestCommandLatencyCharged(t *testing.T) {
	clk := simclock.New()
	d, err := New(smallProfile(), clk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Profile()
	before := clk.Now()
	if err := do(d, ncq.Request{Op: ncq.OpWrite, LPN: 0, Data: devPage(d, 1)}); err != nil {
		t.Fatal(err)
	}
	elapsed := clk.Now() - before
	want := p.CmdOverhead + p.TransferPerPage + p.Nand.ProgLatency
	if elapsed != want {
		t.Errorf("write cost %v, want %v", elapsed, want)
	}
	before = clk.Now()
	if err := do(d, ncq.Request{Op: ncq.OpBarrier}); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now() - before; got < p.BarrierOverhead {
		t.Errorf("barrier cost %v, want >= %v", got, p.BarrierOverhead)
	}
}

func TestBarrierDurability(t *testing.T) {
	d := newDev(t, false)
	if err := do(d, ncq.Request{Op: ncq.OpWrite, LPN: 9, Data: devPage(d, 0x44)}); err != nil {
		t.Fatal(err)
	}
	if err := do(d, ncq.Request{Op: ncq.OpBarrier}); err != nil {
		t.Fatal(err)
	}
	d.PowerCut()
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.PageSize())
	if err := do(d, ncq.Request{Op: ncq.OpRead, LPN: 9, Buf: buf}); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x44 {
		t.Errorf("post-restart read = %x, want 0x44", buf[0])
	}
}

func TestTransactionalCrashAtomicity(t *testing.T) {
	d := newDev(t, true)
	for l := int64(0); l < 3; l++ {
		if err := do(d, ncq.Request{Op: ncq.OpWriteTx, TID: 1, LPN: l, Data: devPage(d, 9)}); err != nil {
			t.Fatal(err)
		}
	}
	d.PowerCut()
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.PageSize())
	for l := int64(0); l < 3; l++ {
		if err := do(d, ncq.Request{Op: ncq.OpRead, LPN: l, Buf: buf}); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0 {
			t.Errorf("page %d shows uncommitted data after crash", l)
		}
	}
}

func TestTrim(t *testing.T) {
	d := newDev(t, true)
	if err := do(d, ncq.Request{Op: ncq.OpWrite, LPN: 2, Data: devPage(d, 5)}); err != nil {
		t.Fatal(err)
	}
	if err := do(d, ncq.Request{Op: ncq.OpTrim, LPN: 2}); err != nil {
		t.Fatal(err)
	}
	buf := devPage(d, 0xFF)
	if err := do(d, ncq.Request{Op: ncq.OpRead, LPN: 2, Buf: buf}); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Error("trimmed page still returns data")
	}
}

func TestCommandCounting(t *testing.T) {
	d := newDev(t, false)
	n0 := d.Commands()
	_ = do(d, ncq.Request{Op: ncq.OpWrite, LPN: 0, Data: devPage(d, 1)})
	_ = do(d, ncq.Request{Op: ncq.OpRead, LPN: 0, Buf: make([]byte, d.PageSize())})
	_ = do(d, ncq.Request{Op: ncq.OpBarrier})
	if got := d.Commands() - n0; got != 3 {
		t.Errorf("commands = %d, want 3", got)
	}
}

func TestS830IsFasterEndToEnd(t *testing.T) {
	run := func(p Profile) time.Duration {
		p.Nand.Blocks = 32
		p.Nand.PagesPerBlock = 16
		p.Nand.PageSize = 512
		clk := simclock.New()
		d, err := New(p, clk, Options{})
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, d.PageSize())
		for i := int64(0); i < 50; i++ {
			if err := do(d, ncq.Request{Op: ncq.OpWrite, LPN: i, Data: data}); err != nil {
				t.Fatal(err)
			}
			if i%5 == 0 {
				if err := do(d, ncq.Request{Op: ncq.OpBarrier}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return clk.Now()
	}
	if open, s830 := run(OpenSSD()), run(S830()); s830 >= open {
		t.Errorf("S830 (%v) should beat OpenSSD (%v) on the same workload", s830, open)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	// The queue makes the device safe for concurrent use: parallel
	// writers to disjoint LPNs must all land, and the counters must
	// account every command.
	d := newDev(t, false)
	const workers, per = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lpn := int64(w*per + i)
				if err := do(d, ncq.Request{Op: ncq.OpWrite, LPN: lpn, Data: devPage(d, byte(w+1))}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	d.Queue().Drain()
	buf := make([]byte, d.PageSize())
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			if err := do(d, ncq.Request{Op: ncq.OpRead, LPN: int64(w*per + i), Buf: buf}); err != nil {
				t.Fatal(err)
			}
			if buf[0] != byte(w+1) {
				t.Fatalf("lpn %d = %x, want %x", w*per+i, buf[0], w+1)
			}
		}
	}
	if got := d.Commands(); got < workers*per {
		t.Errorf("Commands() = %d, want >= %d", got, workers*per)
	}
}

func TestHealthReporting(t *testing.T) {
	d := newDev(t, false)
	h := d.Health()
	if h.State != Healthy {
		t.Fatalf("fresh device health = %v, want healthy", h)
	}
	if h.SpareBlocks <= 0 {
		t.Fatalf("SpareBlocks = %d, want > 0", h.SpareBlocks)
	}
	if h.RetiredBlocks != 0 {
		t.Fatalf("RetiredBlocks = %d on fresh device", h.RetiredBlocks)
	}
	if got := h.String(); got == "" {
		t.Fatal("Health.String empty")
	}
}

// A quarantine drain runs in a command window of its own: its copy-back
// reads queue on the fenced unit while its programs spread over the
// healthy ones, so it takes less than its operations one after another.
func TestQuarantineDrainOverlapsUnits(t *testing.T) {
	d, err := New(OpenSSD(), simclock.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < 256; lpn++ {
		if err := do(d, ncq.Request{Op: ncq.OpWrite, LPN: lpn, Data: devPage(d, byte(lpn))}); err != nil {
			t.Fatal(err)
		}
	}
	before, start := d.FlashStats().Snapshot(), d.Clock().Now()
	if err := d.QuarantineUnit(0); err != nil {
		t.Fatal(err)
	}
	took, ops := d.Clock().Now()-start, d.FlashStats().Snapshot().Sub(before)
	if ops.PageReads == 0 || ops.PageWrites == 0 {
		t.Fatalf("the drain moved nothing: %d reads, %d programs", ops.PageReads, ops.PageWrites)
	}
	cfg := d.Profile().Nand
	serial := time.Duration(ops.PageReads)*cfg.ReadLatency + time.Duration(ops.PageWrites)*cfg.ProgLatency +
		time.Duration(ops.BlockErases)*cfg.EraseLatency
	if took >= serial {
		t.Errorf("drain of %d reads and %d programs took %v, want less than their serial %v",
			ops.PageReads, ops.PageWrites, took, serial)
	}
}

func TestRecoveryModeSurfaced(t *testing.T) {
	d := newDev(t, true)
	if err := do(d, ncq.Request{Op: ncq.OpWriteTx, TID: 1, LPN: 3, Data: devPage(d, 0xA1)}); err != nil {
		t.Fatal(err)
	}
	if err := do(d, ncq.Request{Op: ncq.OpCommit, TID: 1}); err != nil {
		t.Fatal(err)
	}
	d.PowerCut()
	if err := d.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if ri := d.LastRecovery(); ri.Mode != ftl.RecoveryImage {
		t.Fatalf("clean crash recovery mode = %v, want image", ri.Mode)
	}

	// Destroy every copy of the mapping image: the next mount must take
	// the full-device scan path and still serve committed data.
	d.PowerCut()
	if n, err := d.CorruptMeta("map", true); err != nil || n == 0 {
		t.Fatalf("CorruptMeta(map) = %d, %v", n, err)
	}
	if err := d.Restart(); err != nil {
		t.Fatalf("Restart after corruption: %v", err)
	}
	ri := d.LastRecovery()
	if ri.Mode != ftl.RecoveryScan {
		t.Fatalf("recovery mode = %v, want scan (reason %q)", ri.Mode, ri.Reason)
	}
	if ri.ScanPages == 0 || ri.Duration <= 0 {
		t.Fatalf("scan recovery info incomplete: %+v", ri)
	}
	buf := make([]byte, d.PageSize())
	if err := do(d, ncq.Request{Op: ncq.OpRead, LPN: 3, Buf: buf}); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xA1 {
		t.Fatalf("committed data lost across scan recovery: %x", buf[0])
	}
}

func TestCorruptMetaUnknownSlot(t *testing.T) {
	d := newDev(t, false)
	d.PowerCut()
	if _, err := d.CorruptMeta("no-such-slot", false); err == nil {
		t.Fatal("CorruptMeta on unknown slot should error")
	}
}
