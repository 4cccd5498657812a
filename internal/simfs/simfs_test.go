package simfs

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/ncq"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/trace"
)

func smallProfile() storage.Profile {
	p := storage.OpenSSD()
	p.Nand.Blocks = 64
	p.Nand.PagesPerBlock = 32
	p.Nand.PageSize = 512
	return p
}

func newFS(t *testing.T, mode JournalMode) (*FS, *metrics.HostCounters) {
	t.Helper()
	dev, err := storage.New(smallProfile(), simclock.New(), storage.Options{Transactional: mode == OffXFTL})
	if err != nil {
		t.Fatal(err)
	}
	host := &metrics.HostCounters{}
	fs, err := New(dev, mode, host)
	if err != nil {
		t.Fatal(err)
	}
	return fs, host
}

func fsPage(fs *FS, fill byte) []byte {
	b := make([]byte, fs.PageSize())
	for i := range b {
		b[i] = fill
	}
	return b
}

func allModes() []JournalMode { return []JournalMode{Ordered, Full, OffXFTL} }

func TestOffModeRequiresTransactionalDevice(t *testing.T) {
	dev, err := storage.New(smallProfile(), simclock.New(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(dev, OffXFTL, nil); !errors.Is(err, ErrNeedsXFTL) {
		t.Errorf("New = %v, want ErrNeedsXFTL", err)
	}
}

func TestCreateOpenRemove(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			fs, _ := newFS(t, mode)
			f, err := fs.Create("a.db", RoleData)
			if err != nil {
				t.Fatal(err)
			}
			if !fs.Exists("a.db") {
				t.Error("created file missing from namespace")
			}
			if _, err := fs.Create("a.db", RoleData); !errors.Is(err, ErrExists) {
				t.Errorf("duplicate create = %v, want ErrExists", err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Open("a.db"); err != nil {
				t.Fatal(err)
			}
			if err := fs.Remove("a.db"); err != nil {
				t.Fatal(err)
			}
			if fs.Exists("a.db") {
				t.Error("removed file still in namespace")
			}
			if _, err := fs.Open("a.db"); !errors.Is(err, ErrNotExist) {
				t.Errorf("open removed = %v, want ErrNotExist", err)
			}
		})
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			fs, _ := newFS(t, mode)
			f, _ := fs.Create("f", RoleData)
			for i := int64(0); i < 10; i++ {
				if err := f.WritePage(i, fsPage(fs, byte(i+1))); err != nil {
					t.Fatal(err)
				}
			}
			if f.Pages() != 10 {
				t.Errorf("Pages = %d, want 10", f.Pages())
			}
			buf := make([]byte, fs.PageSize())
			for i := int64(0); i < 10; i++ {
				if err := f.ReadPage(i, buf); err != nil {
					t.Fatal(err)
				}
				if buf[0] != byte(i+1) {
					t.Errorf("page %d = %d, want %d", i, buf[0], i+1)
				}
			}
			// Also after fsync (cache cleared, reads hit the device).
			if err := f.Fsync(); err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 10; i++ {
				if err := f.ReadPage(i, buf); err != nil {
					t.Fatal(err)
				}
				if buf[0] != byte(i+1) {
					t.Errorf("post-fsync page %d = %d, want %d", i, buf[0], i+1)
				}
			}
		})
	}
}

func TestReadBeyondEOF(t *testing.T) {
	fs, _ := newFS(t, Ordered)
	f, _ := fs.Create("f", RoleData)
	if err := f.ReadPage(0, make([]byte, fs.PageSize())); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("read empty file = %v, want ErrOutOfBounds", err)
	}
}

func TestFsyncCountsAndWriteAttribution(t *testing.T) {
	fs, host := newFS(t, Ordered)
	db, _ := fs.Create("x.db", RoleData)
	jnl, _ := fs.Create("x.db-journal", RoleJournal)
	_ = db.WritePage(0, fsPage(fs, 1))
	_ = jnl.WritePage(0, fsPage(fs, 2))
	if err := db.Fsync(); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Fsync(); err != nil {
		t.Fatal(err)
	}
	s := host.Snapshot()
	if s.Fsyncs != 2 {
		t.Errorf("fsyncs = %d, want 2", s.Fsyncs)
	}
	if s.DBWrites != 1 {
		t.Errorf("db writes = %d, want 1", s.DBWrites)
	}
	if s.JournalWrites != 1 {
		t.Errorf("journal writes = %d, want 1", s.JournalWrites)
	}
	if s.FSMetaWrites == 0 {
		t.Error("ordered-mode fsync with metadata produced no journal writes")
	}
}

func TestFullModeWritesDataTwice(t *testing.T) {
	runWrites := func(mode JournalMode) int64 {
		fs, _ := newFS(t, mode)
		f, _ := fs.Create("f", RoleData)
		before := fs.Device().FlashStats().Snapshot()
		for i := int64(0); i < 8; i++ {
			_ = f.WritePage(i, fsPage(fs, byte(i)))
		}
		if err := f.Fsync(); err != nil {
			t.Fatal(err)
		}
		return fs.Device().FlashStats().Snapshot().Sub(before).PageWrites
	}
	ordered := runWrites(Ordered)
	full := runWrites(Full)
	if full < ordered+8 {
		t.Errorf("full mode wrote %d flash pages vs ordered %d; expected at least 8 more (data journaled twice)", full, ordered)
	}
}

func TestOffModeUsesOneBarrierPerFsync(t *testing.T) {
	fs, host := newFS(t, OffXFTL)
	f, _ := fs.Create("f", RoleData)
	for i := int64(0); i < 5; i++ {
		_ = f.WritePage(i, fsPage(fs, byte(i)))
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	s := host.Snapshot()
	if s.Fsyncs != 1 {
		t.Errorf("fsyncs = %d, want 1", s.Fsyncs)
	}
	if s.JournalWrites != 0 {
		t.Errorf("off mode produced %d journal writes, want 0", s.JournalWrites)
	}
	x := fs.Device().XFTL()
	if x.Stats().Commits != 1 {
		t.Errorf("device commits = %d, want 1", x.Stats().Commits)
	}
}

func TestAbortRollsBackCachedAndStolenWrites(t *testing.T) {
	dev, err := storage.New(smallProfile(), simclock.New(), storage.Options{Transactional: true})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny cache so write-back (steal) happens mid-transaction.
	fs, err := New(dev, OffXFTL, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs.maxDirty = 2
	f, _ := fs.Create("f", RoleData)
	for i := int64(0); i < 6; i++ {
		if err := f.WritePage(i, fsPage(fs, 7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	// New transaction overwrites everything, steals some pages to the
	// device, then aborts.
	for i := int64(0); i < 6; i++ {
		if err := f.WritePage(i, fsPage(fs, 9)); err != nil {
			t.Fatal(err)
		}
	}
	if f.TxID() == 0 {
		t.Fatal("expected steal write-back to have opened a device transaction")
	}
	if err := f.Abort(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, fs.PageSize())
	for i := int64(0); i < 6; i++ {
		if err := f.ReadPage(i, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 7 {
			t.Errorf("page %d = %d after abort, want 7", i, buf[0])
		}
	}
}

func TestStolenWritesVisibleToOwnTransaction(t *testing.T) {
	dev, _ := storage.New(smallProfile(), simclock.New(), storage.Options{Transactional: true})
	fs, err := New(dev, OffXFTL, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs.maxDirty = 1
	f, _ := fs.Create("f", RoleData)
	for i := int64(0); i < 4; i++ {
		if err := f.WritePage(i, fsPage(fs, byte(i+40))); err != nil {
			t.Fatal(err)
		}
	}
	// Pages 0..2 were stolen to the device; the same transaction must
	// read back its own versions.
	buf := make([]byte, fs.PageSize())
	for i := int64(0); i < 4; i++ {
		if err := f.ReadPage(i, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+40) {
			t.Errorf("page %d = %d, want %d", i, buf[0], i+40)
		}
	}
}

func TestCrashBeforeFsyncLosesData(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			fs, _ := newFS(t, mode)
			f, _ := fs.Create("f", RoleData)
			_ = f.WritePage(0, fsPage(fs, 1))
			if err := f.Fsync(); err != nil {
				t.Fatal(err)
			}
			_ = f.WritePage(0, fsPage(fs, 2))
			fs.PowerCut()
			if err := fs.Remount(); err != nil {
				t.Fatal(err)
			}
			g, err := fs.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, fs.PageSize())
			if err := g.ReadPage(0, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != 1 {
				t.Errorf("post-crash page = %d, want the fsynced version 1", buf[0])
			}
		})
	}
}

func TestOffModeCrashMidTransactionIsAtomic(t *testing.T) {
	dev, _ := storage.New(smallProfile(), simclock.New(), storage.Options{Transactional: true})
	fs, err := New(dev, OffXFTL, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs.maxDirty = 1
	f, _ := fs.Create("f", RoleData)
	for i := int64(0); i < 4; i++ {
		_ = f.WritePage(i, fsPage(fs, 1))
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	// Partially stolen second transaction, then power cut.
	for i := int64(0); i < 4; i++ {
		_ = f.WritePage(i, fsPage(fs, 2))
	}
	fs.PowerCut()
	if err := fs.Remount(); err != nil {
		t.Fatal(err)
	}
	g, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, fs.PageSize())
	for i := int64(0); i < 4; i++ {
		if err := g.ReadPage(i, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 1 {
			t.Errorf("page %d = %d after mid-tx crash, want 1", i, buf[0])
		}
	}
}

func TestFileCreationSurvivesCrashAfterFsync(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			fs, _ := newFS(t, mode)
			f, _ := fs.Create("new.db", RoleData)
			_ = f.WritePage(0, fsPage(fs, 9))
			if err := f.Fsync(); err != nil {
				t.Fatal(err)
			}
			fs.PowerCut()
			if err := fs.Remount(); err != nil {
				t.Fatal(err)
			}
			if !fs.Exists("new.db") {
				t.Fatal("file lost after fsync + crash")
			}
			g, _ := fs.Open("new.db")
			buf := make([]byte, fs.PageSize())
			if err := g.ReadPage(0, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != 9 {
				t.Errorf("content = %d, want 9", buf[0])
			}
		})
	}
}

func TestDeletedFileStaysDeletedAfterCommitAndCrash(t *testing.T) {
	fs, _ := newFS(t, Ordered)
	f, _ := fs.Create("j", RoleJournal)
	_ = f.WritePage(0, fsPage(fs, 1))
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("j"); err != nil {
		t.Fatal(err)
	}
	// Another file's fsync commits the pending metadata (deletion).
	g, _ := fs.Create("d", RoleData)
	_ = g.WritePage(0, fsPage(fs, 2))
	if err := g.Fsync(); err != nil {
		t.Fatal(err)
	}
	fs.PowerCut()
	if err := fs.Remount(); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("j") {
		t.Error("deleted file resurrected after crash")
	}
	if !fs.Exists("d") {
		t.Error("committed file lost")
	}
}

func TestTruncateShrinksAndTrims(t *testing.T) {
	fs, _ := newFS(t, Ordered)
	f, _ := fs.Create("w", RoleJournal)
	for i := int64(0); i < 8; i++ {
		_ = f.WritePage(i, fsPage(fs, byte(i)))
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	free := fs.FreePages()
	if err := f.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if f.Pages() != 2 {
		t.Errorf("Pages = %d, want 2", f.Pages())
	}
	if err := f.Fsync(); err != nil { // commit point releases trimmed pages
		t.Fatal(err)
	}
	if got := fs.FreePages(); got != free+6 {
		t.Errorf("free pages = %d, want %d", got, free+6)
	}
	if err := f.ReadPage(5, make([]byte, fs.PageSize())); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("read past truncation = %v, want ErrOutOfBounds", err)
	}
}

func TestSparseFileReadsZeros(t *testing.T) {
	fs, _ := newFS(t, Ordered)
	f, _ := fs.Create("s", RoleData)
	_ = f.WritePage(5, fsPage(fs, 1)) // pages 0..4 are holes
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	buf := fsPage(fs, 0xFF)
	if err := f.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Error("hole read returned nonzero")
	}
}

func TestClosedFileRejectsIO(t *testing.T) {
	fs, _ := newFS(t, Ordered)
	f, _ := fs.Create("c", RoleData)
	_ = f.Close()
	if err := f.WritePage(0, fsPage(fs, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close = %v, want ErrClosed", err)
	}
}

func TestUnmountedFSRejectsOps(t *testing.T) {
	fs, _ := newFS(t, Ordered)
	fs.PowerCut()
	if _, err := fs.Create("x", RoleData); !errors.Is(err, ErrNotMounted) {
		t.Errorf("create while unmounted = %v, want ErrNotMounted", err)
	}
}

func TestMultiFileAtomicCommitViaSharedTid(t *testing.T) {
	fs, _ := newFS(t, OffXFTL)
	a, _ := fs.Create("a.db", RoleData)
	b, _ := fs.Create("b.db", RoleData)
	_ = a.WritePage(0, fsPage(fs, 1))
	tid := a.tidFor()
	b.AdoptTx(tid)
	_ = b.WritePage(0, fsPage(fs, 2))
	// Force both caches to the device under the shared tid, then crash
	// before commit: neither write may survive.
	if err := a.writeBackSome(10); err != nil {
		t.Fatal(err)
	}
	if err := b.writeBackSome(10); err != nil {
		t.Fatal(err)
	}
	fs.PowerCut()
	if err := fs.Remount(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.db", "b.db"} {
		if fs.Exists(name) {
			t.Errorf("uncommitted created file %s survived crash", name)
		}
	}
}

func TestFsyncOnCleanFileIsBarrierOnly(t *testing.T) {
	fs, host := newFS(t, Ordered)
	f, _ := fs.Create("f", RoleData)
	_ = f.WritePage(0, fsPage(fs, 1))
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	before := host.Snapshot()
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	d := host.Snapshot().Sub(before)
	if d.TotalWrites() != 0 {
		t.Errorf("clean fsync issued %d writes", d.TotalWrites())
	}
	if d.Fsyncs != 1 {
		t.Errorf("fsync not counted")
	}
}

// TestConcurrentWritersOnDifferentFiles: sessions on different database
// files share the allocator, the dirty metadata, the recycled cache
// pages and the one in-flight command; the writer-path lock must keep
// them apart. Each writer's pages must read back as written. Run with
// -race.
func TestConcurrentWritersOnDifferentFiles(t *testing.T) {
	fs, _ := newFS(t, OffXFTL)
	const writers, rounds, pages = 4, 30, 6
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fail := func(err error) { errs <- fmt.Errorf("writer %d: %w", w, err) }
			f, err := fs.Create(fmt.Sprintf("w%d.db", w), RoleData)
			if err != nil {
				fail(err)
				return
			}
			buf := make([]byte, fs.PageSize())
			for r := 0; r < rounds; r++ {
				fill := byte(w<<5 | r&31)
				for idx := int64(0); idx < pages; idx++ {
					if err := f.WritePage(idx, fsPage(fs, fill)); err != nil {
						fail(err)
						return
					}
				}
				if r%5 == 4 {
					if err := f.Abort(); err != nil {
						fail(err)
						return
					}
					continue
				}
				if err := f.Fsync(); err != nil {
					fail(err)
					return
				}
				for idx := int64(0); idx < pages; idx++ {
					if err := f.ReadPage(idx, buf); err != nil {
						fail(err)
						return
					}
					if buf[0] != fill || buf[len(buf)-1] != fill {
						fail(fmt.Errorf("round %d page %d reads %#x, wrote %#x", r, idx, buf[0], fill))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A pipelined writer's fsync only queues its page writes — they overlap,
// and the commit that ends the fsync starts behind all of them — while its
// reads still wait. The command stream itself (op, LPN, tid, in order) is
// the unpipelined writer's, whose commands run strictly one by one.
func TestPipelinedFsyncQueuesItsWrites(t *testing.T) {
	run := func(pipelined bool) []trace.Event {
		fs, _ := newFS(t, OffXFTL)
		tr := trace.New()
		tr.Attach(fs.Device().Clock(), t.Name())
		fs.Device().SetTracer(tr)
		fs.SetIOContext(0, pipelined)
		f, err := fs.Create("a.db", RoleData)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			for idx := int64(0); idx < 6; idx++ {
				if err := f.WritePage(idx, fsPage(fs, byte(round))); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Fsync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.ReadPage(3, make([]byte, fs.PageSize())); err != nil {
			t.Fatal(err)
		}
		var cmds []trace.Event
		for _, ev := range tr.Events() {
			if ev.Kind == trace.KCmd {
				cmds = append(cmds, ev)
			}
		}
		if read := cmds[len(cmds)-1]; ncq.Op(read.Op) != ncq.OpReadTx && ncq.Op(read.Op) != ncq.OpRead || fs.Device().Clock().Now() < read.Start+read.Dur {
			t.Fatalf("pipelined=%v: the writer's read (%+v) was not waited for", pipelined, read)
		}
		return cmds
	}
	waited, queued := run(false), run(true)
	if len(waited) != len(queued) {
		t.Fatalf("%d commands unpipelined, %d pipelined", len(waited), len(queued))
	}
	var inFlight []trace.Event // the current fsync's writes
	overlaps := 0
	for i, q := range queued {
		w := waited[i]
		if w.Op != q.Op || w.Addr != q.Addr || w.TID != q.TID {
			t.Fatalf("command %d: unpipelined %v lpn %d tid %d, pipelined %v lpn %d tid %d",
				i, ncq.Op(w.Op), w.Addr, w.TID, ncq.Op(q.Op), q.Addr, q.TID)
		}
		if i > 0 && w.Start < waited[i-1].Start+waited[i-1].Dur {
			t.Fatalf("unpipelined command %d was submitted before command %d completed", i, i-1)
		}
		switch ncq.Op(q.Op) {
		case ncq.OpWriteTx:
			if n := len(inFlight); n > 0 && inFlight[n-1].Start+inFlight[n-1].Dur > q.Start {
				overlaps++
			}
			inFlight = append(inFlight, q)
		case ncq.OpCommit:
			for _, wr := range inFlight {
				if q.Disp < wr.Start+wr.Dur {
					t.Fatalf("commit started at %v, before its fsync's write of lpn %d completed at %v", q.Disp, wr.Addr, wr.Start+wr.Dur)
				}
			}
			inFlight = inFlight[:0]
		}
	}
	if overlaps < 3*5 {
		t.Fatalf("%d of the pipelined fsyncs' writes overlapped their predecessor, want all but each fsync's first", overlaps)
	}
}
