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

// scan reads every page of the kv table through db.
func scan(t *testing.T, db *sqlite.DB) {
	t.Helper()
	if _, _, err := db.QueryRow("SELECT count(*) FROM kv"); err != nil {
		t.Fatal(err)
	}
}

// checkBudget holds the database to its one page budget while no
// statement runs: the table at most its frames, the writer at most its
// cache size.
func checkBudget(t *testing.T, e *env, frames int) {
	t.Helper()
	if n := e.tbl.Resident(); n > frames {
		t.Fatalf("the table holds %d pages, over its %d frames", n, frames)
	}
	if pg := e.w.Pager(); pg.CachedPages() > pg.CacheSize() {
		t.Fatalf("the writer caches %d pages, over its %d", pg.CachedPages(), pg.CacheSize())
	}
}

// Connections and the writer share one page budget: the writer's cache
// of cache pages and a table of capacity × cache frames. With no reader
// at work the writer's scan keeps what its own cache has no room for in
// the table, and a second scan finds it there; a reader's scan fills the
// table; a reader at the same sequence reads what another read without
// touching flash. A seeded stream of checkouts, cold opens, returns,
// scans and writes then holds the table and the writer to the budget
// after every step.
func TestBudgetSharedByLiveConns(t *testing.T) {
	const capacity, cache = 4, 8
	const frames = capacity * cache
	e := newSizedEnv(t, cache, frames)
	e.fill(t, 400) // ≈100 leaves
	p := New(capacity)
	defer p.Close()
	reads := func() int64 { return e.host.Reads.Load() }

	// The writer alone: the leaves its point reads visit stay between its
	// cache and the table, so reading them again, newest first, reads no
	// flash.
	const point = "SELECT v FROM kv WHERE k = ?"
	const leaves = cache + frames - 4 // room for page 1, the roots and the catalog
	for i := 0; i < leaves; i++ {
		if _, _, err := e.w.QueryRow(point, 2+4*i); err != nil { // one row per leaf
			t.Fatal(err)
		}
	}
	checkBudget(t, e, frames)
	before := reads()
	for i := leaves - 1; i >= 0; i-- {
		if _, _, err := e.w.QueryRow(point, 2+4*i); err != nil {
			t.Fatal(err)
		}
	}
	if n := reads() - before; n != 0 {
		t.Errorf("the writer re-read %d of the %d leaves it had kept in its cache and the table", n, leaves)
	}

	var out []*Conn
	take := func() *Conn {
		t.Helper()
		c := e.checkout(t, p)
		if c == nil {
			c = e.coldOpen(t)
		}
		out = append(out, c)
		scan(t, c.DB)
		checkBudget(t, e, frames)
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
		e.give(p, c)
		checkBudget(t, e, frames)
	}
	c1 := take()
	if n := e.tbl.Resident(); n != frames {
		t.Fatalf("a reader's scan left %d pages in the table, want all %d frames filled", n, frames)
	}
	// A second reader at the same sequence finds what the first read.
	c2 := e.coldOpen(t)
	out = append(out, c2)
	if _, _, err := c1.DB.QueryRow(point, 2); err != nil {
		t.Fatal(err)
	}
	before = reads()
	if _, _, err := c2.DB.QueryRow(point, 2); err != nil {
		t.Fatal(err)
	}
	if n := reads() - before; n != 0 {
		t.Errorf("a second reader at the first one's sequence read %d pages from flash", n)
	}
	give(c1)
	give(c2)

	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 300; step++ {
		switch {
		case len(out) < 6 && (len(out) == 0 || rng.Intn(2) == 0):
			take()
		default:
			give(out[rng.Intn(len(out))])
		}
		if rng.Intn(5) == 0 {
			scan(t, e.w)
			e.commit(t, int64(step))
			checkBudget(t, e, frames)
		}
	}
	for len(out) > 0 {
		give(out[0])
	}
	t.Logf("%d idle; %d pages in the table; %+v", p.Idle(), e.tbl.Resident(), p.Stats())
}

// Readers check connections out, read and return them from several
// goroutines while a writer commits beside them — rewriting pages the
// readers read, and growing the file so connections reload their header
// and catalog. Every read sees a consistent snapshot no older than the
// last commit that returned before it began, and once everything is back
// the table and the writer are held to their budget. Run it under -race.
func TestConcurrentCheckoutReturn(t *testing.T) {
	const frames = 24
	e := newSizedEnv(t, 8, frames)
	e.fill(t, 200)
	if _, err := e.w.Exec("UPDATE kv SET v = 0 WHERE k = 2"); err != nil {
		t.Fatal(err)
	}
	p := New(3)
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
				c, err := acquire(e.fs, p, e.tbl)
				if err != nil {
					t.Error(err)
					return
				}
				row, _, err := c.DB.QueryRow("SELECT count(*), sum(v) FROM kv WHERE k <= 2")
				n, _, cerr := c.DB.QueryRow("SELECT count(*) FROM kv")
				p.Return(c, e.fs.Device().CommitSeq())
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
	t.Logf("%d idle, %d pages in the table; %+v", p.Idle(), e.tbl.Resident(), st)
	if st.Hits == 0 {
		t.Error("no checkout was served warm")
	}
	checkBudget(t, e, frames)
}

// acquire is a read session's connection: the pool's warmest, re-seated
// if a commit has overtaken it, or a cold one over a fresh snapshot.
func acquire(fs *simfs.FS, p *Pool, tbl *pager.Table) (*Conn, error) {
	seq := fs.Device().CommitSeq()
	c := p.Checkout(seq, fs.Epoch())
	if c != nil && c.Snap != nil {
		return c, nil
	}
	snap, err := fs.OpenSnapshot()
	if err != nil {
		if c != nil {
			p.Return(c, seq)
		}
		return nil, err
	}
	if c != nil && p.Reseat(c, snap) {
		return c, nil
	}
	db, err := sqlite.OpenReader(fs, "test.db", snap, tbl)
	if err != nil {
		_ = snap.Close()
		return nil, err
	}
	return &Conn{DB: db, Snap: snap}, nil
}
