package xftl_test

import (
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/ncq"
)

func modes() []xftl.Mode {
	return []xftl.Mode{xftl.ModeRollback, xftl.ModeWAL, xftl.ModeXFTL}
}

// TestStackClose pins the graceful-shutdown contract: Close drains
// every in-flight NCQ command to completion (advancing virtual time to
// the last retire), leaves no goroutines behind (the stack owns none —
// all simulation is synchronous in virtual time), and a second Close is
// a no-op.
func TestStackClose(t *testing.T) {
	before := runtime.NumGoroutine()
	st, err := xftl.NewStackDevice(xftl.OpenSSD(), xftl.ModeXFTL, xftl.DeviceOptions{}, xftl.StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := st.Device.Queue()
	pageSize := st.Device.Profile().Nand.PageSize

	// Fill the queue with asynchronous writes: submitted and issued, but
	// their completions are not yet visible in virtual time.
	for i := int64(0); i < 16; i++ {
		if err := q.Submit(&ncq.Request{Op: ncq.OpWrite, LPN: i, Data: make([]byte, pageSize)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if q.InFlight() == 0 {
		t.Fatal("no commands in flight before close")
	}
	elapsed := st.Elapsed()

	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !st.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if got := q.InFlight(); got != 0 {
		t.Fatalf("Close left %d commands in flight", got)
	}
	if st.Elapsed() <= elapsed {
		t.Fatal("drain did not advance virtual time to the last completion")
	}

	// Second close: no-op, no error, clock untouched.
	drained := st.Elapsed()
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if st.Elapsed() != drained {
		t.Fatal("second Close advanced the clock")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("stack leaked %d goroutines", after-before)
	}
}

func TestStackModes(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			st, err := xftl.NewStackDevice(xftl.OpenSSD(), mode, xftl.DeviceOptions{}, xftl.StackOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if (mode == xftl.ModeXFTL) != st.Device.Transactional() {
				t.Errorf("mode %s: transactional device = %v", mode, st.Device.Transactional())
			}
			db, err := st.OpenDB("t.db")
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec(`INSERT INTO t VALUES (1, 'x')`); err != nil {
				t.Fatal(err)
			}
			row, ok, err := db.QueryRow(`SELECT v FROM t WHERE id = 1`)
			if err != nil || !ok || row[0].Text() != "x" {
				t.Fatalf("row = %v ok=%v err=%v", row, ok, err)
			}
			if st.Elapsed() == 0 {
				t.Error("no simulated time elapsed despite I/O")
			}
		})
	}
}

func TestStackCrashRecovery(t *testing.T) {
	st, err := xftl.NewStackDevice(xftl.OpenSSD(), xftl.ModeXFTL, xftl.DeviceOptions{}, xftl.StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := st.OpenDB("t.db")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 10)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`UPDATE t SET v = 99 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	st.PowerCut()
	if err := st.Remount(); err != nil {
		t.Fatal(err)
	}
	db2, err := st.OpenDB("t.db")
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	row, _, err := db2.QueryRow(`SELECT v FROM t WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Int() != 10 {
		t.Errorf("v = %d after crash, want 10", row[0].Int())
	}
}

func TestModeIOCharacter(t *testing.T) {
	// The facade should surface the paper's I/O signature: X-FTL mode
	// issues no journal writes and fewer fsyncs than rollback mode.
	counts := map[xftl.Mode]struct {
		journal int64
		fsyncs  int64
	}{}
	for _, mode := range modes() {
		st, err := xftl.NewStackDevice(xftl.OpenSSD(), mode, xftl.DeviceOptions{}, xftl.StackOptions{})
		if err != nil {
			t.Fatal(err)
		}
		db, err := st.OpenDB("t.db")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
			t.Fatal(err)
		}
		st.Host.Reset()
		for i := 1; i <= 10; i++ {
			if _, err := db.Exec(`INSERT INTO t VALUES (?, ?)`, i, i); err != nil {
				t.Fatal(err)
			}
		}
		s := st.Host.Snapshot()
		counts[mode] = struct {
			journal int64
			fsyncs  int64
		}{s.JournalWrites, s.Fsyncs}
		_ = db.Close()
	}
	if counts[xftl.ModeXFTL].journal != 0 {
		t.Errorf("X-FTL mode wrote %d journal pages", counts[xftl.ModeXFTL].journal)
	}
	if counts[xftl.ModeRollback].journal == 0 {
		t.Error("rollback mode wrote no journal pages")
	}
	if !(counts[xftl.ModeRollback].fsyncs > counts[xftl.ModeXFTL].fsyncs) {
		t.Errorf("fsyncs: rbj=%d xftl=%d", counts[xftl.ModeRollback].fsyncs, counts[xftl.ModeXFTL].fsyncs)
	}
}

// TestStackConstructorsAgree holds the constructors to one device
// configuration. Capacity has one home, DeviceOptions.FTL.LogicalPages:
// NewStackOptions' FTLLogicalPages builds the FTL that capacity builds
// through NewStackDevice, and NewStackDevice refuses the field. Every
// fleet member is the X-FTL stack its DeviceOptions build alone: the
// same FTL configuration, and the same virtual time and flash traffic
// for the same burst of commands.
func TestStackConstructorsAgree(t *testing.T) {
	prof := xftl.OpenSSD()
	def, err := xftl.NewStackDevice(prof, xftl.ModeXFTL, xftl.DeviceOptions{}, xftl.StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	logical := def.Device.LogicalPages() / 2
	viaOpts, err := xftl.NewStackOptions(prof, xftl.ModeXFTL, xftl.StackOptions{FTLLogicalPages: logical})
	if err != nil {
		t.Fatal(err)
	}
	var sized xftl.DeviceOptions
	sized.FTL.LogicalPages = logical
	viaDev, err := xftl.NewStackDevice(prof, xftl.ModeXFTL, sized, xftl.StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := viaDev.Device.FTL().Config()
	if got := viaOpts.Device.FTL().Config(); got != cfg {
		t.Errorf("NewStackOptions builds FTL %+v, NewStackDevice %+v", got, cfg)
	}
	// storage.New derives the bad-block reserve only for a derived
	// capacity, so a device sized by hand has none.
	if cfg.LogicalPages != logical || cfg.SpareBlocks != 0 {
		t.Errorf("a device sized at %d pages has %d pages and %d spare blocks, want %d and 0",
			logical, cfg.LogicalPages, cfg.SpareBlocks, logical)
	}
	if _, err := xftl.NewStackDevice(prof, xftl.ModeXFTL, xftl.DeviceOptions{}, xftl.StackOptions{FTLLogicalPages: logical}); err == nil {
		t.Error("NewStackDevice accepted StackOptions.FTLLogicalPages")
	}

	devOpts := xftl.DeviceOptions{QueueDepth: 4, CmdDeadline: 50 * time.Millisecond, CmdRetries: 2}
	devOpts.FTL.LogicalPages = logical
	lone, err := xftl.NewStackDevice(prof, xftl.ModeXFTL, devOpts, xftl.StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := xftl.NewFleet(2, prof, devOpts)
	if err != nil {
		t.Fatal(err)
	}
	want := burst(t, lone)
	for i, st := range fleet {
		if got, want := st.Device.FTL().Config(), lone.Device.FTL().Config(); got != want {
			t.Errorf("member %d FTL config %+v, the lone stack's %+v", i, got, want)
		}
		if got := burst(t, st); got != want {
			t.Errorf("member %d: a burst cost %+v, on the lone stack %+v", i, got, want)
		}
	}
}

// burstCost is what one burst of commands cost a device.
type burstCost struct {
	elapsed time.Duration
	flash   metrics.FlashSnapshot
}

// burst queues 64 page writes and a barrier on the stack's device and
// drains them.
func burst(t *testing.T, st *xftl.Stack) burstCost {
	t.Helper()
	q := st.Device.Queue()
	data := make([]byte, st.Device.PageSize())
	for i := int64(0); i < 64; i++ {
		if err := q.Submit(&ncq.Request{Op: ncq.OpWrite, LPN: i * 7, Data: data}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := q.SubmitWait(&ncq.Request{Op: ncq.OpBarrier}); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	q.Drain()
	return burstCost{st.Elapsed(), st.FlashStats().Snapshot()}
}
