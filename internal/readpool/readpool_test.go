package readpool

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/simfs"
	"repro/internal/sqlite"
	"repro/internal/sqlite/pager"
	"repro/internal/storage"
)

// env is a transactional stack with a seeded database, the substrate a
// pool manages connections over.
type env struct {
	fs *simfs.FS
	w  *sqlite.DB // shared writer connection
}

func newPoolEnv(t *testing.T) *env {
	t.Helper()
	prof := storage.OpenSSD()
	prof.Nand.Blocks = 512
	prof.Nand.PagesPerBlock = 32
	prof.Nand.PageSize = 1024
	dev, err := storage.New(prof, simclock.New(), storage.Options{Transactional: true})
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := simfs.New(dev, simfs.Config{Mode: simfs.OffXFTL}, &metrics.HostCounters{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := sqlite.Open(fsys, "test.db", sqlite.Config{JournalMode: pager.Off, CacheSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ExecScript("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER); INSERT INTO kv VALUES (1, 10);"); err != nil {
		t.Fatal(err)
	}
	return &env{fs: fsys, w: w}
}

// commit bumps the committed generation with one writer transaction.
func (e *env) commit(t *testing.T, v int64) {
	t.Helper()
	if _, err := e.w.Exec("UPDATE kv SET v = ? WHERE k = 1", v); err != nil {
		t.Fatal(err)
	}
}

// coldOpen builds a reader connection the way a cache miss would.
func (e *env) coldOpen(t *testing.T) *Conn {
	t.Helper()
	snap, err := e.fs.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	db, err := sqlite.OpenReader(e.fs, "test.db", snap, sqlite.Config{JournalMode: pager.Off, CacheSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	return NewConn(db, snap)
}

// gen reads the current (seq, epoch) generation off the stack.
func (e *env) gen() (uint64, uint64) {
	return e.fs.Device().CommitSeq(), e.fs.Epoch()
}

func TestCheckoutReusesWarmConn(t *testing.T) {
	e := newPoolEnv(t)
	p := New(4)
	defer p.Close()

	seq, epoch := e.gen()
	if c := p.Checkout(seq, epoch); c != nil {
		t.Fatal("checkout from empty pool returned a connection")
	}
	c := e.coldOpen(t)
	if !p.Return(c) {
		t.Fatal("return to fresh pool rejected")
	}
	got := p.Checkout(seq, epoch)
	if got != c {
		t.Fatalf("checkout returned %p, want the pooled conn %p", got, c)
	}
	// The reused connection still answers queries.
	row, ok, err := got.DB.QueryRow("SELECT v FROM kv WHERE k = 1")
	if err != nil || !ok {
		t.Fatalf("pooled conn query: ok=%v err=%v", ok, err)
	}
	if row[0].Int() != 10 {
		t.Fatalf("pooled conn read %d, want 10", row[0].Int())
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	p.Return(got)
}

func TestCommitInvalidatesPool(t *testing.T) {
	e := newPoolEnv(t)
	p := New(4)
	defer p.Close()

	p.Return(e.coldOpen(t))
	p.Return(e.coldOpen(t))
	e.commit(t, 20)

	seq, epoch := e.gen()
	if c := p.Checkout(seq, epoch); c != nil {
		t.Fatal("checkout after a commit returned a stale connection")
	}
	if st := p.Stats(); st.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", st.Invalidations)
	}
	if p.Idle() != 0 {
		t.Fatalf("stale conns still pooled: %d", p.Idle())
	}
	// A reader opened at the new generation pools and reuses normally,
	// and reads the new value.
	c := e.coldOpen(t)
	p.Return(c)
	got := p.Checkout(seq, epoch)
	if got != c {
		t.Fatal("fresh-generation conn not reused")
	}
	row, ok, err := got.DB.QueryRow("SELECT v FROM kv WHERE k = 1")
	if err != nil || !ok || row[0].Int() != 20 {
		t.Fatalf("fresh-generation read: %v %v %v, want 20", row, ok, err)
	}
	p.Return(got)
}

// A connection cold-opened after a commit outranks the pool's
// generation: returning it flushes the stale pool rather than letting
// old and new states mix.
func TestNewerReturnFlushesStalePool(t *testing.T) {
	e := newPoolEnv(t)
	p := New(4)
	defer p.Close()

	stale := e.coldOpen(t)
	p.Return(stale)
	// Prime the pool generation to the current seq.
	seq, epoch := e.gen()
	got := p.Checkout(seq, epoch)
	p.Return(got)

	e.commit(t, 30)
	fresh := e.coldOpen(t)
	if !p.Return(fresh) {
		t.Fatal("newer-generation return rejected")
	}
	if p.Idle() != 1 {
		t.Fatalf("idle = %d, want only the fresh conn", p.Idle())
	}
	seq, epoch = e.gen()
	if got := p.Checkout(seq, epoch); got != fresh {
		t.Fatal("checkout did not return the fresh connection")
	}
	p.Return(fresh)
}

func TestPowerCutEpochInvalidatesPool(t *testing.T) {
	e := newPoolEnv(t)
	p := New(4)
	defer p.Close()

	p.Return(e.coldOpen(t))
	e.fs.PowerCut()
	if err := e.fs.Remount(); err != nil {
		t.Fatal(err)
	}
	seq, epoch := e.gen()
	if c := p.Checkout(seq, epoch); c != nil {
		t.Fatal("checkout across a power cut returned a pre-cut connection")
	}
	if st := p.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
}

func TestCapacityEvictsColdest(t *testing.T) {
	e := newPoolEnv(t)
	p := New(2)
	defer p.Close()

	c1, c2, c3 := e.coldOpen(t), e.coldOpen(t), e.coldOpen(t)
	p.Return(c1)
	p.Return(c2)
	p.Return(c3) // evicts c1, the coldest
	if st := p.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	seq, epoch := e.gen()
	if got := p.Checkout(seq, epoch); got != c3 {
		t.Fatal("first checkout is not the warmest connection")
	}
	if got := p.Checkout(seq, epoch); got != c2 {
		t.Fatal("second checkout is not the second-warmest connection")
	}
	if p.Idle() != 0 {
		t.Fatalf("idle = %d, want 0", p.Idle())
	}
	p.Return(c2)
	p.Return(c3)
}

func TestCloseDrainsAndRejects(t *testing.T) {
	e := newPoolEnv(t)
	p := New(4)
	p.Return(e.coldOpen(t))
	p.Close()
	if p.Idle() != 0 {
		t.Fatal("close left connections pooled")
	}
	if p.Return(e.coldOpen(t)) {
		t.Fatal("return after close pooled a connection")
	}
	seq, epoch := e.gen()
	if c := p.Checkout(seq, epoch); c != nil {
		t.Fatal("checkout after close returned a connection")
	}
	p.Close() // idempotent
}

// The pooled snapshot-read hot path — checkout, one warm point read at
// the pager layer, release, return — must not allocate, extending the
// queue-layer zero-alloc guard up through the pool.
func TestPooledReadHotPathNoAllocs(t *testing.T) {
	e := newPoolEnv(t)
	p := New(4)
	defer p.Close()

	seq, epoch := e.gen()
	c := e.coldOpen(t)
	// Warm the pager cache so steady state is measured.
	pg, err := c.DB.Pager().Get(1)
	if err != nil {
		t.Fatal(err)
	}
	pg.Release()
	p.Return(c)

	allocs := testing.AllocsPerRun(100, func() {
		conn := p.Checkout(seq, epoch)
		if conn == nil {
			t.Fatal("warm checkout missed")
		}
		pg, err := conn.DB.Pager().Get(1)
		if err != nil {
			t.Fatal(err)
		}
		pg.Release()
		if !p.Return(conn) {
			t.Fatal("warm return rejected")
		}
	})
	if allocs != 0 {
		t.Errorf("pooled read hot path allocates %.1f objects/op, want 0", allocs)
	}
}
