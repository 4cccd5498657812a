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
	tbl  *pager.Table          // the page cache w shares with the readers
}

func newPoolEnv(t *testing.T) *env { return newSizedEnv(t, cacheSize, 4*cacheSize) }

// newSizedEnv is newPoolEnv with a writer cache of cache pages and a
// table of frames.
func newSizedEnv(t *testing.T, cache, frames int) *env {
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
	w, err := sqlite.Open(fsys, "test.db", sqlite.Config{Mode: pager.Off, CacheSize: cache})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ExecScript("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER); INSERT INTO kv VALUES (1, 10);"); err != nil {
		t.Fatal(err)
	}
	tbl := pager.NewTable(fsys, frames)
	w.Pager().Share(tbl)
	return &env{fs: fsys, host: host, w: w, tbl: tbl}
}

// commit moves the committed state on with one writer transaction that
// rewrites the kv table's one leaf.
func (e *env) commit(t *testing.T, v int64) {
	t.Helper()
	if _, err := e.w.Exec("UPDATE kv SET v = ? WHERE k = 1", v); err != nil {
		t.Fatal(err)
	}
}

// cacheSize is the writer's cache size; the readers' table holds four
// times as many pages.
const cacheSize = 100

// coldOpen builds a reader connection the way a cache miss would.
func (e *env) coldOpen(t *testing.T) *Conn {
	t.Helper()
	snap, err := e.fs.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	db, err := sqlite.OpenReader(e.fs, "test.db", snap, e.tbl)
	if err != nil {
		t.Fatal(err)
	}
	return &Conn{DB: db, Snap: snap}
}

// checkout takes the pool's warmest connection the way a read session
// does: at the current sequence and epoch, re-seating it over a fresh
// snapshot if a commit has overtaken it. nil is a miss.
func (e *env) checkout(t *testing.T, p *Pool) *Conn {
	t.Helper()
	c := p.Checkout(e.fs.Device().CommitSeq(), e.fs.Epoch())
	if c == nil || c.Snap != nil {
		return c
	}
	snap, err := e.fs.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Reseat(c, snap) {
		_ = snap.Close()
		return nil
	}
	return c
}

// give returns c to p the way a read session's end does.
func (e *env) give(p *Pool, c *Conn) bool { return p.Return(c, e.fs.Device().CommitSeq()) }

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
	if !e.give(p, c) {
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
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	e.give(p, got)
}

// A commit does not cost the pool its connections: the next checkout
// re-seats the warmest past it, which finds the page the commit wrote in
// the table, published by the writer, and reads nothing from flash. Its
// sibling stays pooled.
func TestCommitAdvancesPooledConn(t *testing.T) {
	e := newPoolEnv(t)
	p := New(4)
	defer p.Close()

	e.give(p, e.coldOpen(t))
	warm := e.coldOpen(t)
	if v := readV(t, warm); v != 10 {
		t.Fatalf("cold read %d, want 10", v)
	}
	e.give(p, warm)
	e.commit(t, 20)

	reads := e.host.Reads.Load()
	got := e.checkout(t, p)
	if got != warm {
		t.Fatal("checkout after a commit did not hand back the warmest connection")
	}
	if got.Snap.Seq() != e.fs.Device().CommitSeq() {
		t.Fatalf("re-seated conn reads sequence %d, want %d", got.Snap.Seq(), e.fs.Device().CommitSeq())
	}
	if v := readV(t, got); v != 20 {
		t.Fatalf("re-seated read %d, want 20", v)
	}
	if n := e.host.Reads.Load() - reads; n != 0 {
		t.Errorf("re-seat and point read cost %d page reads, want none: the writer published the leaf it rewrote", n)
	}
	if st := p.Stats(); st.Hits != 1 || st.Invalidations != 0 || st.Idle != 1 {
		t.Fatalf("stats = %+v, want 1 hit, no invalidation, 1 idle", st)
	}
	e.give(p, got)
}

// Connections at different sequences share the pool: a newer return
// closes nothing, checkouts take the warmest first, and an older one is
// re-seated when its turn comes.
func TestPoolHoldsMixedSequences(t *testing.T) {
	e := newPoolEnv(t)
	p := New(4)
	defer p.Close()

	stale := e.coldOpen(t)
	e.give(p, stale)
	e.commit(t, 30)
	fresh := e.coldOpen(t)
	if !e.give(p, fresh) {
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
		t.Fatalf("older conn read %d after its re-seat, want 30", v)
	}
	if st := p.Stats(); st.Hits != 2 || st.Invalidations != 0 {
		t.Fatalf("stats = %+v, want 2 hits, no invalidation", st)
	}
	e.give(p, fresh)
	e.give(p, stale)
}

// A commit that grows the file writes page 1: the next checkout re-seats
// the pooled connection with its header and catalog reloaded, and it
// reads the new row; nothing is cold-opened.
func TestGrowthReseatsConn(t *testing.T) {
	e := newPoolEnv(t)
	p := New(4)
	defer p.Close()

	c := e.coldOpen(t)
	if v := readV(t, c); v != 10 {
		t.Fatalf("cold read %d, want 10", v)
	}
	e.give(p, c)
	big := strings.Repeat("x", 900)
	if _, err := e.w.Exec("INSERT INTO kv VALUES (2, ?)", big); err != nil {
		t.Fatal(err)
	}
	got := e.checkout(t, p)
	if got != c {
		t.Fatal("the pooled connection was not re-seated past a commit that grew the file")
	}
	if got.DB.Pager().NPages() != e.w.Pager().NPages() {
		t.Fatalf("re-seated conn sees %d pages, the writer committed %d", got.DB.Pager().NPages(), e.w.Pager().NPages())
	}
	row, ok, err := got.DB.QueryRow("SELECT v FROM kv WHERE k = 2")
	if err != nil || !ok || row[0].Text() != big {
		t.Fatalf("re-seated conn reads the new row as ok=%v err=%v", ok, err)
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 0 || st.Invalidations != 0 || st.Idle != 0 {
		t.Fatalf("stats = %+v, want 1 hit, no invalidation, no miss", st)
	}
	e.give(p, got)
}

func TestPowerCutEpochInvalidatesPool(t *testing.T) {
	e := newPoolEnv(t)
	p := New(4)
	defer p.Close()

	e.give(p, e.coldOpen(t))
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
	e.give(p, c1)
	e.give(p, c2)
	e.give(p, c3) // evicts c1, the coldest
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
	e.give(p, c2)
	e.give(p, c3)
}

func TestCloseDrainsAndRejects(t *testing.T) {
	e := newPoolEnv(t)
	p := New(4)
	e.give(p, e.coldOpen(t))
	p.Close()
	if p.Idle() != 0 {
		t.Fatal("close left connections pooled")
	}
	if e.give(p, e.coldOpen(t)) {
		t.Fatal("return after close pooled a connection")
	}
	if c := e.checkout(t, p); c != nil {
		t.Fatal("checkout after close returned a connection")
	}
	p.Close() // idempotent
}

// An idle connection keeps no snapshot older than the newest commit its
// pool's last checkout or return saw, so idle connections pin at most
// the versions one commit superseded: the checkout after each commit
// closes the snapshots of the idle connections it overtook, which park
// without one, and re-seats the one it hands out. Three connections sit
// idle under a fourth that every reader takes, while each commit rewrites
// a row on a different one of 80 leaves.
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
		e.give(p, e.coldOpen(t))
	}
	x := e.fs.Device().XFTL()
	peak := 0
	for i := 0; i < 2*leaves; i++ {
		if _, err := e.w.Exec("UPDATE kv SET v = ? WHERE k = ?", row(i), 2+stride*(i%leaves)); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, x.PinnedPages())
		seen := e.fs.Device().CommitSeq()
		c := e.checkout(t, p)
		if c == nil {
			t.Fatalf("commit %d: the warm connection was not re-seated", i)
		}
		e.give(p, c)
		for j, idle := range p.free {
			if idle.Snap != nil && idle.Snap.Seq() < seen {
				t.Fatalf("commit %d: idle connection %d keeps a snapshot at %d, older than the %d its pool saw", i, j, idle.Snap.Seq(), seen)
			}
		}
	}
	t.Logf("peak pinned %d pages; %+v", peak, p.Stats())
	// One leaf per commit, pinned by the one connection at the sequence
	// before it.
	if peak > 1 {
		t.Errorf("idle connections pinned %d pages, more than the one leaf a commit rewrites", peak)
	}
	if st := p.Stats(); st.Invalidations != 0 || st.Idle != 4 || st.Misses != 0 {
		t.Errorf("stats = %+v, want the 4 connections kept", st)
	}
	for i := 0; i < 4; i++ {
		if unseated := p.free[i].Snap == nil; unseated != (i < 3) {
			t.Errorf("pooled connection %d unseated: %v", i, unseated)
		}
	}
	// An unseated connection's next checkout re-seats it over the newest
	// snapshot.
	for i := 0; i < 2; i++ {
		c := e.checkout(t, p)
		if c == nil || c.Snap == nil {
			t.Fatalf("checkout %d: no seated connection", i)
		}
		if v, want := readV(t, c), int64(10); v != want {
			t.Fatalf("checkout %d reads %d, want %d", i, v, want)
		}
		defer e.give(p, c)
	}
}

// The pooled snapshot-read hot path — checkout, one warm point read at
// the pager layer, release, return — must not allocate, extending the
// queue-layer zero-alloc guard up through the pool. A checkout that
// re-seats past a commit costs no more than the snapshot it opens.
func TestPooledReadHotPathNoAllocs(t *testing.T) {
	e := newPoolEnv(t)
	p := New(4)
	defer p.Close()

	c := e.coldOpen(t)
	// Warm the table so steady state is measured.
	pg, err := c.DB.Pager().Get(1)
	if err != nil {
		t.Fatal(err)
	}
	pg.Release()
	e.give(p, c)

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
		if !e.give(p, conn) {
			t.Fatal("warm return rejected")
		}
	}
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("pooled read hot path allocates %.1f objects/op, want 0", allocs)
	}

	// Past a commit that rewrote the kv leaf (page 1 unchanged), against
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
			if i >= runs { // the first runs grew the table's and the pager's reusable storage
				total += m1.Mallocs - m0.Mallocs
			}
		}
		return float64(total) / runs
	}
	hits := p.Stats().Hits
	reseating := afterCommits(read)
	if st := p.Stats(); st.Hits != hits+2*runs || st.Misses != 0 {
		t.Fatalf("stats = %+v, want every checkout re-seated", st)
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
	t.Logf("re-seating checkout: %.2f allocs; snapshot moved past a commit: %.2f", reseating, bare)
	// Rounded: a runtime-internal allocation may land inside a bracket.
	if math.Round(reseating) > math.Round(bare) {
		t.Errorf("a re-seating checkout allocates %.1f objects, its snapshot's open and close %.1f", reseating, bare)
	}
}
