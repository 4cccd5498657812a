package readpool

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/simfs"
	"repro/internal/sqlite"
	"repro/internal/sqlite/pager"
)

// fill inserts rows 2…n+1 of 200-byte text, four to a 1 KB leaf, in one
// transaction: a table of about n/4 pages for readers to fill caches from.
func (e *env) fill(t *testing.T, n int) {
	t.Helper()
	if _, err := e.w.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	for k := 2; k < 2+n; k++ {
		if _, err := e.w.Exec("INSERT INTO kv VALUES (?, ?)", k, fmt.Sprintf("r%0199d", k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.w.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
}

// scan runs one statement on c the way its owner does, after the share
// check, which must leave c at the share of the connections live: it reads
// every page of the kv table, filling c's cache to its limit.
func scan(t *testing.T, p *Pool, c *Conn) {
	t.Helper()
	if err := p.Resize(c); err != nil {
		t.Fatal(err)
	}
	if share := p.share(p.Live()); limit(c) != share {
		t.Fatalf("a checked-out connection sized to %d pages, its share of %d live is %d", limit(c), p.Live(), share)
	}
	if _, _, err := c.DB.QueryRow("SELECT count(*) FROM kv"); err != nil {
		t.Fatal(err)
	}
}

// limit is the cache size a connection was last given.
func limit(c *Conn) int { return c.DB.Pager().CacheSize() }

// sizeWriter stands in for the database's writer connection's share
// check, which must leave db at the writer's share: the pool sizes it at
// each write's begin and end, and whenever a reader goes live while it is
// idle.
func sizeWriter(t *testing.T, p *Pool, db *sqlite.DB) {
	t.Helper()
	if err := p.SizeWriter(db.Pager()); err != nil {
		t.Fatal(err)
	}
	if share := p.writerShare(p.Live()); db.Pager().CacheSize() != share {
		t.Fatalf("the writer sized to %d pages, its share beside %d live is %d", db.Pager().CacheSize(), p.Live(), share)
	}
}

// checkBudget holds the pool and the writer w to the page budget with out
// checked out: every idle connection within the share of the L live ones,
// and all of them together within max(budget, L × cacheSize) + cacheSize
// — plus what the checked-out connections' and the writer's limits
// exceed their shares by, as they may until their next statement, when
// scan and sizeWriter hold them to their shares. It returns that lag.
func checkBudget(t *testing.T, p *Pool, out []*Conn, w *sqlite.DB) int {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	live := p.Live()
	if live != len(p.free)+len(out) {
		t.Fatalf("pool counts %d live connections, %d idle and %d checked out", live, len(p.free), len(out))
	}
	share := p.share(live)
	total, lag := 0, 0
	for i, c := range p.free {
		if pages := c.DB.Pager().CachedPages(); pages > limit(c) || limit(c) > share {
			t.Fatalf("idle connection %d holds %d pages, limit %d, share of %d live %d", i, pages, limit(c), live, share)
		}
		total += c.DB.Pager().CachedPages()
	}
	held := func(what string, pg *pager.Pager, share int) {
		t.Helper()
		if pages := pg.CachedPages(); pages > pg.CacheSize() {
			t.Fatalf("%s holds %d pages over its limit %d", what, pages, pg.CacheSize())
		}
		total += pg.CachedPages()
		lag += max(0, pg.CacheSize()-share)
	}
	for i, c := range out {
		held(fmt.Sprintf("checked-out connection %d", i), c.DB.Pager(), share)
	}
	held("the writer", w.Pager(), p.writerShare(live))
	if bound := max(p.budget, live*p.cache) + p.cache; total > bound+lag {
		t.Fatalf("%d live connections and the writer hold %d pages, over max(%d, %d×%d) + %d + %d", live, total, p.budget, live, p.cache, p.cache, lag)
	}
	return lag
}

// The share rule: one live connection gets the whole budget, two half
// each, and from the pool's capacity on every connection gets the
// per-connection cache size — exactly what each got before the budget.
func TestShareRule(t *testing.T) {
	p := New(4, 8)
	for live, want := range map[int]int{0: 32, 1: 32, 2: 16, 3: 10, 4: 8, 5: 8, 100: 8} {
		if got := p.share(live); got != want {
			t.Errorf("share(%d) = %d, want %d", live, got, want)
		}
	}
}

// Connections take their share of the budget at cold open and checkout:
// the first alone caches the whole budget, later ones split it, and idle
// ones are cut as soon as another connection goes live, a checked-out
// one at its next statement. From PoolCapacity live connections on, each
// caches exactly its CacheSize. The writer caches its CacheSize plus the
// whole budget while no connection is live, and its CacheSize beside
// them. A seeded stream of checkouts, cold opens, returns, statements
// and writes then holds the pool and the writer to the budget after
// every step, and the lag to one statement.
func TestBudgetSharedByLiveConns(t *testing.T) {
	e := newPoolEnv(t)
	e.fill(t, 400) // ≈100 leaves
	const capacity, cache = 4, 8
	p := New(capacity, cache)
	defer p.Close()
	w := e.w
	var out []*Conn
	// write is one writer transaction: sized at its begin, it reads the
	// whole table, rewrites a row, and is sized again at its end.
	write := func(v int64) {
		t.Helper()
		sizeWriter(t, p, w)
		if _, _, err := e.w.QueryRow("SELECT count(*) FROM kv"); err != nil {
			t.Fatal(err)
		}
		e.commit(t, v)
		sizeWriter(t, p, w)
		checkBudget(t, p, out, w)
	}
	wantWriter := func(want int, what string) {
		t.Helper()
		if pg := e.w.Pager(); pg.CacheSize() != want || pg.CachedPages() > want {
			t.Fatalf("%s: the writer's limit %d holding %d pages, want limit %d", what, pg.CacheSize(), pg.CachedPages(), want)
		}
	}
	take := func() *Conn {
		t.Helper()
		c := e.checkout(t, p)
		if c == nil {
			c = e.coldOpen(t, p)
			sizeWriter(t, p, w) // the writer is idle: the reader gone live takes back what it borrowed
		}
		out = append(out, c)
		checkBudget(t, p, out, w)
		scan(t, p, c)
		checkBudget(t, p, out, w)
		return c
	}
	give := func(c *Conn) {
		t.Helper()
		for i, o := range out {
			if o == c {
				out = append(out[:i], out[i+1:]...)
				break
			}
		}
		p.Return(c)
		checkBudget(t, p, out, w)
	}
	wantLimit := func(c *Conn, want int, what string) {
		t.Helper()
		if limit(c) != want || c.DB.Pager().CachedPages() > want {
			t.Fatalf("%s: limit %d holding %d pages, want limit %d", what, limit(c), c.DB.Pager().CachedPages(), want)
		}
	}

	write(1)
	wantWriter(cache+capacity*cache, "no connection live")
	if e.w.Pager().CachedPages() != cache+capacity*cache {
		t.Fatalf("a scan left %d pages in the writer's cache, want all %d it may borrow", e.w.Pager().CachedPages(), cache+capacity*cache)
	}
	c1 := take()
	wantWriter(cache, "a connection gone live")
	wantLimit(c1, 32, "alone")
	if c1.DB.Pager().CachedPages() != 32 {
		t.Fatalf("a scan left %d pages cached, want the whole 32-page share", c1.DB.Pager().CachedPages())
	}
	c2 := take()
	wantLimit(c2, 16, "second of two")
	wantLimit(c1, 32, "checked out before the second went live")
	scan(t, p, c1)
	wantLimit(c1, 16, "at its next statement")
	if lag := checkBudget(t, p, out, w); lag != 0 {
		t.Fatalf("every connection has run a statement since L last moved, yet %d pages lag", lag)
	}
	give(c1)
	wantLimit(c1, 16, "returned one of two")
	give(c2)
	c3, c4, c5 := take(), take(), take() // c2 and c1 are checked out again
	wantLimit(c3, 16, "warm checkout of two")
	if c5 == c1 || c5 == c2 {
		t.Fatal("a third concurrent checkout reused a pooled connection")
	}
	wantLimit(c5, 10, "third of three")
	give(c3)
	give(c4)
	give(c5)
	c6, c7, c8, c9 := take(), take(), take(), take() // the fourth is a cold open
	wantLimit(c9, cache, "fourth of four")
	for _, c := range []*Conn{c6, c7, c8, c9} {
		give(c)
		wantLimit(c, cache, "returned at PoolCapacity live")
	}
	c10 := take()
	wantLimit(c10, cache, "checkout at PoolCapacity live")
	give(c10)

	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 300; step++ {
		switch {
		case len(out) < 6 && (len(out) == 0 || rng.Intn(2) == 0):
			take()
		default:
			give(out[rng.Intn(len(out))])
		}
		if rng.Intn(10) == 0 {
			write(int64(step))
		}
		if rng.Intn(5) == 0 {
			// One statement on every checked-out connection, and a write,
			// leave nothing lagging.
			for _, c := range out {
				scan(t, p, c)
			}
			write(int64(step))
			if lag := checkBudget(t, p, out, w); lag != 0 {
				t.Fatalf("step %d: every connection has run a statement since L last moved, yet %d pages lag", step, lag)
			}
		}
	}
	for len(out) > 0 {
		give(out[0])
	}
	t.Logf("%d live, %d idle holding %d pages; %+v", p.Live(), p.Idle(), p.CachePages(), p.Stats())
}

// Readers check connections out, read and return them from several
// goroutines while a writer commits beside them — rewriting pages the
// readers cache, growing the file so connections are re-seated, and
// leaving idle ones behind the change log's reach. Every read sees a
// consistent snapshot no older than the last commit that returned before
// it began, and once everything is back the pool counts exactly its idle
// connections and holds them to its budget. Run it under -race.
func TestConcurrentCheckoutReturn(t *testing.T) {
	e := newPoolEnv(t)
	e.fill(t, 200)
	if _, err := e.w.Exec("UPDATE kv SET v = 0 WHERE k = 2"); err != nil {
		t.Fatal(err)
	}
	p := New(3, 8)
	defer p.Close()
	const readers, reads, commits = 4, 150, 200
	var rows atomic.Int64 // rows committed so far
	rows.Store(201)
	var done, readersDone atomic.Int64 // reads finished; readers finished
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		big := strings.Repeat("g", 900)
		for i := 1; i <= commits; i++ {
			// Keep pace with the readers, so commits land between reads.
			for done.Load() < int64(i*readers*reads/commits) && readersDone.Load() < readers {
				runtime.Gosched()
			}
			// Move one unit from key 2 to key 1 (their sum stays 10), and
			// now and then add an overflow row, which grows the file.
			script := "BEGIN; UPDATE kv SET v = v + 1 WHERE k = 1; UPDATE kv SET v = v - 1 WHERE k = 2;"
			if i%10 == 0 {
				script += fmt.Sprintf("INSERT INTO kv VALUES (%d, '%s');", 10000+i, big)
			}
			if err := e.w.ExecScript(script + "COMMIT;"); err != nil {
				t.Error(err)
				return
			}
			if i%10 == 0 {
				rows.Add(1)
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer readersDone.Add(1)
			for i := 0; i < reads; i++ {
				done.Add(1)
				least := rows.Load()
				c, err := acquire(e.fs, p)
				if err != nil {
					t.Error(err)
					return
				}
				row, _, err := c.DB.QueryRow("SELECT count(*), sum(v) FROM kv WHERE k <= 2")
				n, _, cerr := c.DB.QueryRow("SELECT count(*) FROM kv")
				p.Return(c)
				if err != nil || cerr != nil {
					t.Error(err, cerr)
					return
				}
				if row[0].Int() != 2 || row[1].Int() != 10 {
					t.Errorf("torn read: keys 1 and 2 are %d rows summing to %d", row[0].Int(), row[1].Int())
					return
				}
				if n[0].Int() < least {
					t.Errorf("reader saw %d rows after %d had committed", n[0].Int(), least)
					return
				}
				runtime.Gosched() // on one processor the writer must get its turn
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	t.Logf("%d live, %d idle holding %d pages; %+v", p.Live(), p.Idle(), p.CachePages(), st)
	if st.Hits == 0 || st.Advances == 0 {
		t.Error("no checkout was served warm and advanced")
	}
	sizeWriter(t, p, e.w)
	checkBudget(t, p, nil, e.w)
}

// acquire is a read session's connection: the pool's warmest, brought up
// to date, or a cold one over a fresh snapshot.
func acquire(fs *simfs.FS, p *Pool) (*Conn, error) {
	seq := fs.Device().CommitSeq()
	c := p.Checkout(seq, fs.Epoch(), fs.AdvanceFloor())
	if c != nil && c.Fresh(seq) {
		return c, nil
	}
	snap, err := fs.OpenSnapshot()
	if err != nil {
		if c != nil {
			p.Return(c)
		}
		return nil, err
	}
	if c != nil && p.Advance(c, fs, snap) {
		return c, nil
	}
	db, err := sqlite.OpenReader(fs, "test.db", snap, sqlite.Config{Mode: pager.Off, CacheSize: p.cache})
	if err != nil {
		_ = snap.Close()
		return nil, err
	}
	return p.Adopt(db, snap), nil
}
