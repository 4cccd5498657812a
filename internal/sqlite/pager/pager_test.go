package pager

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/simfs"
	"repro/internal/storage"
)

func smallProfile() storage.Profile {
	p := storage.OpenSSD()
	p.Nand.Blocks = 128
	p.Nand.PagesPerBlock = 32
	p.Nand.PageSize = 1024
	return p
}

type env struct {
	fs   *simfs.FS
	host *metrics.HostCounters
}

func newEnv(t testing.TB, mode JournalMode) *env {
	t.Helper()
	var fsMode simfs.JournalMode
	transactional := false
	if mode == Off {
		fsMode = simfs.OffXFTL
		transactional = true
	} else {
		fsMode = simfs.Ordered
	}
	dev, err := storage.New(smallProfile(), simclock.New(), storage.Options{Transactional: transactional})
	if err != nil {
		t.Fatal(err)
	}
	host := &metrics.HostCounters{}
	fsys, err := simfs.New(dev, fsMode, host)
	if err != nil {
		t.Fatal(err)
	}
	return &env{fs: fsys, host: host}
}

func openPager(t testing.TB, e *env, mode JournalMode, cache int) *Pager {
	t.Helper()
	p, err := Open(e.fs, "test.db", Config{Mode: mode, CacheSize: cache, CheckpointPages: 50})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return p
}

func allModes() []JournalMode { return []JournalMode{Rollback, WAL, Off} }

// setPage writes a recognizable fill into a page inside a transaction.
func setPage(t *testing.T, p *Pager, pgno Pgno, fill byte) {
	t.Helper()
	pg, err := p.Get(pgno)
	if err != nil {
		t.Fatalf("Get(%d): %v", pgno, err)
	}
	defer pg.Release()
	if err := p.Write(pg); err != nil {
		t.Fatalf("Write(%d): %v", pgno, err)
	}
	for i := 64; i < len(pg.Data()); i++ { // keep page-1 header intact
		pg.Data()[i] = fill
	}
}

func getFill(t *testing.T, p *Pager, pgno Pgno) byte {
	t.Helper()
	pg, err := p.Get(pgno)
	if err != nil {
		t.Fatalf("Get(%d): %v", pgno, err)
	}
	defer pg.Release()
	return pg.Data()[64]
}

// grow allocates n pages inside an open transaction.
func grow(t testing.TB, p *Pager, n int) []Pgno {
	t.Helper()
	var out []Pgno
	for i := 0; i < n; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatalf("Allocate: %v", err)
		}
		out = append(out, pg.Pgno())
		pg.Release()
	}
	return out
}

func TestCommitMakesPagesDurable(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t, mode)
			p := openPager(t, e, mode, 100)
			if err := p.Begin(); err != nil {
				t.Fatal(err)
			}
			pgnos := grow(t, p, 3)
			for i, pgno := range pgnos {
				setPage(t, p, pgno, byte(10+i))
			}
			if err := p.Commit(); err != nil {
				t.Fatalf("Commit: %v", err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			// Reopen and verify.
			p2 := openPager(t, e, mode, 100)
			for i, pgno := range pgnos {
				if got := getFill(t, p2, pgno); got != byte(10+i) {
					t.Errorf("page %d = %d, want %d", pgno, got, 10+i)
				}
			}
			_ = p2.Close()
		})
	}
}

func TestRollbackUndoesChanges(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t, mode)
			p := openPager(t, e, mode, 100)
			if err := p.Begin(); err != nil {
				t.Fatal(err)
			}
			pgnos := grow(t, p, 2)
			for _, pgno := range pgnos {
				setPage(t, p, pgno, 1)
			}
			if err := p.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := p.Begin(); err != nil {
				t.Fatal(err)
			}
			for _, pgno := range pgnos {
				setPage(t, p, pgno, 2)
			}
			if err := p.Rollback(); err != nil {
				t.Fatalf("Rollback: %v", err)
			}
			for _, pgno := range pgnos {
				if got := getFill(t, p, pgno); got != 1 {
					t.Errorf("page %d = %d after rollback, want 1", pgno, got)
				}
			}
			_ = p.Close()
		})
	}
}

func TestRollbackUndoesStolenWrites(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t, mode)
			p := openPager(t, e, mode, 100)
			if err := p.Begin(); err != nil {
				t.Fatal(err)
			}
			pgnos := grow(t, p, 20)
			for _, pgno := range pgnos {
				setPage(t, p, pgno, 1)
			}
			if err := p.Commit(); err != nil {
				t.Fatal(err)
			}
			_ = p.Close()
			// Tiny cache: updates will be stolen to storage mid-tx.
			p = openPager(t, e, mode, 5)
			if err := p.Begin(); err != nil {
				t.Fatal(err)
			}
			for _, pgno := range pgnos {
				setPage(t, p, pgno, 2)
			}
			if err := p.Rollback(); err != nil {
				t.Fatal(err)
			}
			for _, pgno := range pgnos {
				if got := getFill(t, p, pgno); got != 1 {
					t.Errorf("page %d = %d after rollback with steal, want 1", pgno, got)
				}
			}
			_ = p.Close()
		})
	}
}

func TestCrashMidTransactionRecoversAtomically(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t, mode)
			p := openPager(t, e, mode, 100)
			if err := p.Begin(); err != nil {
				t.Fatal(err)
			}
			pgnos := grow(t, p, 10)
			for _, pgno := range pgnos {
				setPage(t, p, pgno, 1)
			}
			if err := p.Commit(); err != nil {
				t.Fatal(err)
			}
			_ = p.Close()

			// Second transaction with a tiny cache (guaranteed steal),
			// crashed before commit.
			p = openPager(t, e, mode, 4)
			if err := p.Begin(); err != nil {
				t.Fatal(err)
			}
			for _, pgno := range pgnos {
				setPage(t, p, pgno, 2)
			}
			e.fs.PowerCut()
			if err := e.fs.Remount(); err != nil {
				t.Fatal(err)
			}
			p2 := openPager(t, e, mode, 100) // runs recovery
			for _, pgno := range pgnos {
				if got := getFill(t, p2, pgno); got != 1 {
					t.Errorf("page %d = %d after crash recovery, want 1", pgno, got)
				}
			}
			_ = p2.Close()
		})
	}
}

// A rollback-mode transaction that journals more pages than the header
// page's directory can name (253 on 1 KB pages) and is cut plays back
// whole: the directory goes on in pages of its own. Pages the transaction
// allocated are journaled too; playback leaves them to the truncation.
func TestCrashPastJournalDirectoryRecoversAtomically(t *testing.T) {
	e := newEnv(t, Rollback)
	p := openPager(t, e, Rollback, 100)
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	pgnos := grow(t, p, 300)
	for _, pgno := range pgnos {
		setPage(t, p, pgno, 1)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	size := p.NPages()
	_ = p.Close()

	p = openPager(t, e, Rollback, 4) // every page steals, so every image syncs
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	grow(t, p, 5)
	for _, pgno := range pgnos {
		setPage(t, p, pgno, 2)
	}
	if p.jSynced <= jnlHdrEntries(p.PageSize()) {
		t.Fatalf("%d images synced: the directory fits the header page", p.jSynced)
	}
	e.fs.PowerCut()
	if err := e.fs.Remount(); err != nil {
		t.Fatal(err)
	}
	p2 := openPager(t, e, Rollback, 100) // runs recovery
	defer p2.Close()
	if p2.JournalPlaybacks != 1 || p2.NPages() != size {
		t.Fatalf("recovery: %d playbacks, %d pages; want 1 and %d", p2.JournalPlaybacks, p2.NPages(), size)
	}
	for _, pgno := range pgnos {
		if got := getFill(t, p2, pgno); got != 1 {
			t.Fatalf("page %d = %d after crash recovery, want 1", pgno, got)
		}
	}
}

// The journal decoder never panics, whatever the journal holds, and a
// header and directory it accepts encode back to the same bytes.
func FuzzJournalHeader(f *testing.F) {
	const ps = 64 // 13 entries in the header, 16 per directory page
	enc := func(origSize Pgno, pgnos []Pgno) []byte {
		n := int64(1)
		if len(pgnos) > 0 {
			n = jnlImagePage(len(pgnos)-1, ps) + 1
		}
		b := make([]byte, n*ps)
		jnlEncodeHeader(b[:ps], origSize, pgnos)
		for seg := 0; seg < jnlDirPages(len(pgnos), ps); seg++ {
			at := jnlDirPage(seg, ps) * ps
			jnlEncodeDir(b[at:at+ps], seg, pgnos)
		}
		return b
	}
	seq := func(n int) []Pgno {
		out := make([]Pgno, n)
		for i := range out {
			out[i] = Pgno(n - i)
		}
		return out
	}
	f.Add(enc(7, nil))
	f.Add(enc(40, seq(13)))
	f.Add(enc(40, seq(14)))
	f.Add(enc(90, seq(61)))
	f.Fuzz(func(t *testing.T, b []byte) {
		pages := int64(len(b) / ps)
		read := func(idx int64, buf []byte) error {
			copy(buf, b[idx*ps:(idx+1)*ps])
			return nil
		}
		if pages == 0 {
			return
		}
		hdr := make([]byte, ps)
		_ = read(0, hdr)
		origSize, pgnos, err := jnlDecode(hdr, pages, read)
		if err != nil {
			return
		}
		re := enc(origSize, pgnos)
		used := func(page int64, n int) { // the first n bytes of page must round-trip
			at := page * ps
			if !bytes.Equal(re[at:at+int64(n)], b[at:at+int64(n)]) {
				t.Fatalf("journal page %d re-encodes as %x, was %x", page, re[at:at+int64(n)], b[at:at+int64(n)])
			}
		}
		used(0, 12+4*min(len(pgnos), jnlHdrEntries(ps)))
		for seg := 0; seg < jnlDirPages(len(pgnos), ps); seg++ {
			used(jnlDirPage(seg, ps), 4*min(len(pgnos)-jnlHdrEntries(ps)-seg*jnlDirEntries(ps), jnlDirEntries(ps)))
		}
	})
}

func TestCrashAfterCommitKeepsChanges(t *testing.T) {
	// In WAL and Off modes a committed transaction is durable the
	// moment Commit returns. In rollback mode the commit point is the
	// journal *deletion*, whose durability rides the next file-system
	// metadata commit (exactly as on ext4): the final transaction
	// before a crash may legally roll back, so a follow-up transaction
	// is run to carry the deletion to disk, and only the first
	// transaction's durability is asserted.
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t, mode)
			p := openPager(t, e, mode, 100)
			if err := p.Begin(); err != nil {
				t.Fatal(err)
			}
			pgnos := grow(t, p, 5)
			for _, pgno := range pgnos {
				setPage(t, p, pgno, 7)
			}
			if err := p.Commit(); err != nil {
				t.Fatal(err)
			}
			if mode == Rollback {
				if err := p.Begin(); err != nil {
					t.Fatal(err)
				}
				setPage(t, p, pgnos[0], 7)
				if err := p.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			e.fs.PowerCut()
			if err := e.fs.Remount(); err != nil {
				t.Fatal(err)
			}
			p2 := openPager(t, e, mode, 100)
			for _, pgno := range pgnos {
				if got := getFill(t, p2, pgno); got != 7 {
					t.Errorf("page %d = %d after crash, want committed 7", pgno, got)
				}
			}
			_ = p2.Close()
		})
	}
}

func TestRollbackJournalLifecycle(t *testing.T) {
	e := newEnv(t, Rollback)
	p := openPager(t, e, Rollback, 100)
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	pgnos := grow(t, p, 2)
	setPage(t, p, pgnos[0], 1)
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if e.fs.Exists("test.db-journal") {
		t.Error("journal file survived commit")
	}
	_ = p.Close()
}

func TestRollbackModeFsyncPattern(t *testing.T) {
	e := newEnv(t, Rollback)
	p := openPager(t, e, Rollback, 100)
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	pgnos := grow(t, p, 5)
	for _, pg := range pgnos {
		setPage(t, p, pg, 1)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	_ = p.Close()
	// Steady-state transaction: 3 fsyncs (journal data, journal header,
	// database), as in Table 1.
	p = openPager(t, e, Rollback, 100)
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	before := e.host.Snapshot()
	for _, pg := range pgnos {
		setPage(t, p, pg, 2)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	d := e.host.Snapshot().Sub(before)
	if d.Fsyncs != 3 {
		t.Errorf("rollback-mode commit used %d fsyncs, want 3", d.Fsyncs)
	}
	// 5 data pages + header page to the journal, plus header rewrite.
	if d.JournalWrites < 6 || d.JournalWrites > 8 {
		t.Errorf("journal writes = %d, want 6..8", d.JournalWrites)
	}
	// 5 data pages + page 1 to the database.
	if d.DBWrites != 6 {
		t.Errorf("db writes = %d, want 6", d.DBWrites)
	}
	_ = p.Close()
}

func TestWALModeFsyncPattern(t *testing.T) {
	e := newEnv(t, WAL)
	p := openPager(t, e, WAL, 100)
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	pgnos := grow(t, p, 5)
	for _, pg := range pgnos {
		setPage(t, p, pg, 1)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	before := e.host.Snapshot()
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, pg := range pgnos {
		setPage(t, p, pg, 2)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	d := e.host.Snapshot().Sub(before)
	if d.Fsyncs != 1 {
		t.Errorf("wal-mode commit used %d fsyncs, want 1", d.Fsyncs)
	}
	// 5 frames + 1 commit record into the log; nothing to the db.
	if d.JournalWrites != 6 {
		t.Errorf("wal writes = %d, want 6", d.JournalWrites)
	}
	if d.DBWrites != 0 {
		t.Errorf("db writes = %d, want 0 before checkpoint", d.DBWrites)
	}
	_ = p.Close()
}

func TestOffModeFsyncPattern(t *testing.T) {
	e := newEnv(t, Off)
	p := openPager(t, e, Off, 100)
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	pgnos := grow(t, p, 5)
	for _, pg := range pgnos {
		setPage(t, p, pg, 1)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	before := e.host.Snapshot()
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, pg := range pgnos {
		setPage(t, p, pg, 2)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	d := e.host.Snapshot().Sub(before)
	if d.Fsyncs != 1 {
		t.Errorf("off-mode commit used %d fsyncs, want 1", d.Fsyncs)
	}
	if d.JournalWrites != 0 {
		t.Errorf("off mode wrote %d journal pages, want 0", d.JournalWrites)
	}
	if d.DBWrites != 5 {
		t.Errorf("db writes = %d, want 5 (no header churn, no double writes)", d.DBWrites)
	}
	_ = p.Close()
}

func TestWALCheckpointMovesPagesToDB(t *testing.T) {
	e := newEnv(t, WAL)
	p := openPager(t, e, WAL, 100)
	// CheckpointPages is 50 in the test config; run enough commits.
	var pgnos []Pgno
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	pgnos = grow(t, p, 10)
	for _, pg := range pgnos {
		setPage(t, p, pg, 1)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		if err := p.Begin(); err != nil {
			t.Fatal(err)
		}
		for _, pg := range pgnos {
			setPage(t, p, pg, byte(round))
		}
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if p.Checkpoints.Load() == 0 {
		t.Error("no checkpoint occurred despite exceeding the threshold")
	}
	if got := e.host.Snapshot().DBWrites; got == 0 {
		t.Error("checkpoint wrote nothing to the database file")
	}
	_ = p.Close()
}

func TestFreelistReuse(t *testing.T) {
	e := newEnv(t, Rollback)
	p := openPager(t, e, Rollback, 100)
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	pgnos := grow(t, p, 3)
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(pgnos[1]); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	sizeBefore := p.NPages()
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if pg.Pgno() != pgnos[1] {
		t.Errorf("Allocate = %d, want reused %d", pg.Pgno(), pgnos[1])
	}
	pg.Release()
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if p.NPages() != sizeBefore {
		t.Errorf("db grew to %d despite freelist reuse", p.NPages())
	}
	_ = p.Close()
}

func TestFreelistSurvivesReopen(t *testing.T) {
	e := newEnv(t, Rollback)
	p := openPager(t, e, Rollback, 100)
	_ = p.Begin()
	pgnos := grow(t, p, 3)
	_ = p.Commit()
	_ = p.Begin()
	if err := p.Free(pgnos[0]); err != nil {
		t.Fatal(err)
	}
	_ = p.Commit()
	_ = p.Close()
	p2 := openPager(t, e, Rollback, 100)
	_ = p2.Begin()
	pg, err := p2.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if pg.Pgno() != pgnos[0] {
		t.Errorf("after reopen Allocate = %d, want %d", pg.Pgno(), pgnos[0])
	}
	pg.Release()
	_ = p2.Rollback()
	_ = p2.Close()
}

func TestSchemaRootPersists(t *testing.T) {
	e := newEnv(t, Rollback)
	p := openPager(t, e, Rollback, 100)
	_ = p.Begin()
	if err := p.SetSchemaRoot(42); err != nil {
		t.Fatal(err)
	}
	_ = p.Commit()
	_ = p.Close()
	p2 := openPager(t, e, Rollback, 100)
	if p2.SchemaRoot() != 42 {
		t.Errorf("SchemaRoot = %d, want 42", p2.SchemaRoot())
	}
	_ = p2.Close()
}

func TestAllocationRollsBack(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t, mode)
			p := openPager(t, e, mode, 100)
			_ = p.Begin()
			grow(t, p, 2)
			_ = p.Commit()
			size := p.NPages()
			_ = p.Begin()
			grow(t, p, 5)
			if err := p.Rollback(); err != nil {
				t.Fatal(err)
			}
			if p.NPages() != size {
				t.Errorf("NPages = %d after rollback, want %d", p.NPages(), size)
			}
			_ = p.Close()
		})
	}
}

func TestTxStateErrors(t *testing.T) {
	e := newEnv(t, Rollback)
	p := openPager(t, e, Rollback, 100)
	if err := p.Commit(); !errors.Is(err, ErrNoTx) {
		t.Errorf("Commit outside tx = %v, want ErrNoTx", err)
	}
	if _, err := p.Allocate(); !errors.Is(err, ErrNoTx) {
		t.Errorf("Allocate outside tx = %v, want ErrNoTx", err)
	}
	_ = p.Begin()
	if err := p.Begin(); !errors.Is(err, ErrInTx) {
		t.Errorf("nested Begin = %v, want ErrInTx", err)
	}
	_ = p.Rollback()
	if _, err := p.Get(999); !errors.Is(err, ErrBadPgno) {
		t.Errorf("Get(999) = %v, want ErrBadPgno", err)
	}
	_ = p.Close()
}

func TestWALReadsOwnUncommittedFrames(t *testing.T) {
	e := newEnv(t, WAL)
	p := openPager(t, e, WAL, 4) // tiny cache: frames stolen to the WAL
	_ = p.Begin()
	pgnos := grow(t, p, 10)
	for i, pg := range pgnos {
		setPage(t, p, pg, byte(50+i))
	}
	// Re-read everything while still in the transaction.
	for i, pg := range pgnos {
		if got := getFill(t, p, pg); got != byte(50+i) {
			t.Errorf("own read of page %d = %d, want %d", pg, got, 50+i)
		}
	}
	_ = p.Commit()
	_ = p.Close()
}

func TestWALLargeTransactionCommitChain(t *testing.T) {
	// A transaction with more frames than one commit record holds
	// (page size 1024 -> 127 entries/record) must survive reopen: the
	// commit record is a chain terminated by a flagged final page.
	e := newEnv(t, WAL)
	p := openPager(t, e, WAL, 50)
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	pgnos := grow(t, p, 300)
	for i, pg := range pgnos {
		setPage(t, p, pg, byte(i%200+1))
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	_ = p.Close()
	p2 := openPager(t, e, WAL, 400)
	defer p2.Close()
	for i, pg := range pgnos {
		if got := getFill(t, p2, pg); got != byte(i%200+1) {
			t.Fatalf("page %d = %d, want %d (commit chain lost frames)", pg, got, i%200+1)
		}
	}
}

func TestWALCrashMidCommitChainIsAtomic(t *testing.T) {
	// Crash before the final chain page: the whole transaction must
	// vanish. Simulated by writing many frames then crashing before
	// Commit (the chain never gets its final page).
	e := newEnv(t, WAL)
	p := openPager(t, e, WAL, 20) // steal pushes frames to the WAL early
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	pgnos := grow(t, p, 50)
	for _, pg := range pgnos {
		setPage(t, p, pg, 1)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, pg := range pgnos {
		setPage(t, p, pg, 2)
	}
	e.fs.PowerCut()
	if err := e.fs.Remount(); err != nil {
		t.Fatal(err)
	}
	p2 := openPager(t, e, WAL, 400)
	defer p2.Close()
	for _, pg := range pgnos {
		if got := getFill(t, p2, pg); got != 1 {
			t.Fatalf("page %d = %d after crash, want 1", pg, got)
		}
	}
}
