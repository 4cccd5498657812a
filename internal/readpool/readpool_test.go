package readpool

import (
	"fmt"
	"math"
	"runtime"
	"strings"
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
	fs   *simfs.FS
	host *metrics.HostCounters // fs's host-side I/O counters
	w    *sqlite.DB            // shared writer connection
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
	host := &metrics.HostCounters{}
	fsys, err := simfs.New(dev, simfs.OffXFTL, host)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sqlite.Open(fsys, "test.db", sqlite.Config{Mode: pager.Off, CacheSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ExecScript("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER); INSERT INTO kv VALUES (1, 10);"); err != nil {
		t.Fatal(err)
	}
	return &env{fs: fsys, host: host, w: w}
}

// commit moves the committed state on with one writer transaction that
// rewrites the kv table's one leaf.
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
	db, err := sqlite.OpenReader(e.fs, "test.db", snap, sqlite.Config{Mode: pager.Off, CacheSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	return NewConn(db, snap)
}

// checkout takes the pool's warmest connection the way a read session
// does: at the current sequence, epoch and advance floor, advancing it
// over a fresh snapshot if it is behind. nil is a miss.
func (e *env) checkout(t *testing.T, p *Pool) *Conn {
	t.Helper()
	seq := e.fs.Device().CommitSeq()
	c := p.Checkout(seq, e.fs.Epoch(), e.fs.AdvanceFloor())
	if c == nil || c.Snap.Seq() >= seq {
		return c
	}
	snap, err := e.fs.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Advance(c, e.fs, snap) {
		_ = snap.Close()
		return nil
	}
	return c
}

// readV is the kv row's value as a connection reads it.
func readV(t *testing.T, c *Conn) int64 {
	t.Helper()
	row, ok, err := c.DB.QueryRow("SELECT v FROM kv WHERE k = 1")
	if err != nil || !ok {
		t.Fatalf("pooled conn query: ok=%v err=%v", ok, err)
	}
	return row[0].Int()
}

func TestCheckoutReusesWarmConn(t *testing.T) {
	e := newPoolEnv(t)
	p := New(4)
	defer p.Close()

	if c := e.checkout(t, p); c != nil {
		t.Fatal("checkout from empty pool returned a connection")
	}
	c := e.coldOpen(t)
	if !p.Return(c) {
		t.Fatal("return to fresh pool rejected")
	}
	got := e.checkout(t, p)
	if got != c {
		t.Fatalf("checkout returned %p, want the pooled conn %p", got, c)
	}
	// The reused connection still answers queries.
	if v := readV(t, got); v != 10 {
		t.Fatalf("pooled conn read %d, want 10", v)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Advances != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / no advance", st)
	}
	p.Return(got)
}

// A commit does not cost the pool its connections: the next checkout
// advances the warmest past it, which then re-reads only the page the
// commit wrote and sees the new value. Its sibling stays pooled.
func TestCommitAdvancesPooledConn(t *testing.T) {
	e := newPoolEnv(t)
	p := New(4)
	defer p.Close()

	p.Return(e.coldOpen(t))
	warm := e.coldOpen(t)
	if v := readV(t, warm); v != 10 {
		t.Fatalf("cold read %d, want 10", v)
	}
	p.Return(warm)
	e.commit(t, 20)

	reads := e.host.Reads.Load()
	got := e.checkout(t, p)
	if got != warm {
		t.Fatal("checkout after a commit did not hand back the warmest connection")
	}
	if got.Snap.Seq() != e.fs.Device().CommitSeq() {
		t.Fatalf("advanced conn reads sequence %d, want %d", got.Snap.Seq(), e.fs.Device().CommitSeq())
	}
	if v := readV(t, got); v != 20 {
		t.Fatalf("advanced read %d, want 20", v)
	}
	if n := e.host.Reads.Load() - reads; n != 1 {
		t.Errorf("advance and point read cost %d page reads, want 1: the leaf the commit rewrote", n)
	}
	if st := p.Stats(); st.Hits != 1 || st.Advances != 1 || st.Invalidations != 0 || st.Idle != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 advance, no invalidation, 1 idle", st)
	}
	p.Return(got)
}

// Connections at different sequences share the pool: a newer return
// flushes nothing, checkouts take the warmest first, and an older one is
// advanced when its turn comes.
func TestPoolHoldsMixedSequences(t *testing.T) {
	e := newPoolEnv(t)
	p := New(4)
	defer p.Close()

	stale := e.coldOpen(t)
	p.Return(stale)
	e.commit(t, 30)
	fresh := e.coldOpen(t)
	if !p.Return(fresh) {
		t.Fatal("newer-sequence return rejected")
	}
	if p.Idle() != 2 {
		t.Fatalf("idle = %d, want both conns", p.Idle())
	}
	if got := e.checkout(t, p); got != fresh {
		t.Fatal("first checkout did not return the fresh connection")
	}
	got := e.checkout(t, p)
	if got != stale {
		t.Fatal("second checkout did not return the older connection")
	}
	if v := readV(t, got); v != 30 {
		t.Fatalf("older conn read %d after its advance, want 30", v)
	}
	if st := p.Stats(); st.Hits != 2 || st.Advances != 1 || st.Invalidations != 0 {
		t.Fatalf("stats = %+v, want 2 hits, 1 advance, no invalidation", st)
	}
	p.Return(fresh)
	p.Return(stale)
}

// A commit that grows the file changes more than pages: the pooled
// connection cannot be advanced past it, is closed, and the reader
// cold-opens.
func TestGrowthForcesColdOpen(t *testing.T) {
	e := newPoolEnv(t)
	p := New(4)
	defer p.Close()

	p.Return(e.coldOpen(t))
	if _, err := e.w.Exec("INSERT INTO kv VALUES (2, ?)", strings.Repeat("x", 900)); err != nil {
		t.Fatal(err)
	}
	if c := e.checkout(t, p); c != nil {
		t.Fatal("a connection was advanced past a commit that grew the file")
	}
	if st := p.Stats(); st.Hits != 0 || st.Misses != 1 || st.Invalidations != 1 || st.Idle != 0 {
		t.Fatalf("stats = %+v, want 1 miss, 1 invalidation, nothing idle", st)
	}
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
	if c := e.checkout(t, p); c != nil {
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
	if got := e.checkout(t, p); got != c3 {
		t.Fatal("first checkout is not the warmest connection")
	}
	if got := e.checkout(t, p); got != c2 {
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
	if c := e.checkout(t, p); c != nil {
		t.Fatal("checkout after close returned a connection")
	}
	p.Close() // idempotent
}

// Idle connections pin the superseded versions of every page committed
// since their snapshot, but no older than the change log reaches: once a
// commit pushes the advance floor past one, the next checkout closes it.
// Three connections sit idle under a fourth that every reader advances,
// while each commit rewrites a row on a different one of 80 leaves.
func TestIdlePinsBoundedByLog(t *testing.T) {
	e := newPoolEnv(t)
	// Rows stay inline, four to a 1 KB leaf; keys 8 apart are on
	// different leaves.
	const leaves, stride = 80, 8
	row := func(i int) string { return fmt.Sprintf("r%0199d", i) } // text: no integer affinity
	if _, err := e.w.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	for k := 2; k < 2+leaves*stride; k++ {
		if _, err := e.w.Exec("INSERT INTO kv VALUES (?, ?)", k, row(0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.w.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	p := New(4)
	defer p.Close()
	for i := 0; i < 4; i++ {
		p.Return(e.coldOpen(t))
	}
	x := e.fs.Device().XFTL()
	peak := 0
	for i := 0; i < 2*leaves; i++ {
		if _, err := e.w.Exec("UPDATE kv SET v = ? WHERE k = ?", row(i), 2+stride*(i%leaves)); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, x.PinnedPages())
		c := e.checkout(t, p)
		if c == nil {
			t.Fatalf("commit %d: the warm connection was not advanced", i)
		}
		p.Return(c)
	}
	reach := int(e.fs.Device().CommitSeq() - e.fs.AdvanceFloor())
	t.Logf("log reach %d commits; peak pinned %d pages; %+v", reach, peak, p.Stats())
	if reach >= leaves {
		t.Fatalf("the log reaches %d commits back: raise leaves so the bound is tested", reach)
	}
	// One leaf per commit; the advanced connection pins at most the last one.
	if peak > reach+1 {
		t.Errorf("idle connections pinned %d pages, more than the %d commits the log reaches", peak, reach)
	}
	if st := p.Stats(); st.Invalidations != 3 || st.Idle != 1 {
		t.Errorf("stats = %+v, want the 3 idle connections closed", st)
	}
}

// The pooled snapshot-read hot path — checkout, one warm point read at
// the pager layer, release, return — must not allocate, extending the
// queue-layer zero-alloc guard up through the pool. A checkout that
// advances past a commit costs no more than the snapshot it opens.
func TestPooledReadHotPathNoAllocs(t *testing.T) {
	e := newPoolEnv(t)
	p := New(4)
	defer p.Close()

	c := e.coldOpen(t)
	// Warm the pager cache so steady state is measured.
	pg, err := c.DB.Pager().Get(1)
	if err != nil {
		t.Fatal(err)
	}
	pg.Release()
	p.Return(c)

	read := func() {
		conn := e.checkout(t, p)
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
	}
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("pooled read hot path allocates %.1f objects/op, want 0", allocs)
	}

	// Past a commit that rewrote the kv leaf (page 1 stays cached), against
	// what moving a bare snapshot past the same commit costs: the new
	// one's open, the old one's close.
	const runs = 100
	afterCommits := func(step func()) float64 {
		var total uint64
		var m0, m1 runtime.MemStats
		for i := 0; i < 2*runs; i++ {
			e.commit(t, int64(i))
			runtime.ReadMemStats(&m0)
			step()
			runtime.ReadMemStats(&m1)
			if i >= runs { // the first runs grew the log's and the pager's reusable storage
				total += m1.Mallocs - m0.Mallocs
			}
		}
		return float64(total) / runs
	}
	advancing := afterCommits(read)
	if st := p.Stats(); st.Advances != 2*runs {
		t.Fatalf("stats = %+v, want every checkout advanced", st)
	}
	p.Close() // the bare snapshot is the only one open, as the pooled one was
	snap, err := e.fs.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	bare := afterCommits(func() {
		next, err := e.fs.OpenSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		_ = snap.Close()
		snap = next
	})
	_ = snap.Close()
	t.Logf("advancing checkout: %.2f allocs; snapshot moved past a commit: %.2f", advancing, bare)
	// Rounded: a runtime-internal allocation may land inside a bracket.
	if math.Round(advancing) > math.Round(bare) {
		t.Errorf("an advancing checkout allocates %.1f objects, its snapshot's open and close %.1f", advancing, bare)
	}
}
