//go:build !race

package pager

import "testing"

// A miss loads into a frame the cache already owns — the one makeRoom
// just evicted, or the page's own if a rollback or an Advance dropped it —
// so it allocates nothing, neither a Page nor a buffer. (Not under -race:
// the race runtime allocates.)
func TestMissAllocsNothing(t *testing.T) {
	const cacheSize, dbPages = 8, 64
	// populated opens a pager with a cacheSize-page cache over a committed
	// database of dbPages pages.
	populated := func(t *testing.T, mode JournalMode) (*env, *Pager) {
		e := newEnv(t, mode)
		p := openPager(t, e, mode, 100)
		if err := p.Begin(); err != nil {
			t.Fatal(err)
		}
		grow(t, p, dbPages-1)
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
		_ = p.Close()
		p = openPager(t, e, mode, cacheSize)
		t.Cleanup(func() { _ = p.Close() })
		return e, p
	}
	get := func(t *testing.T, p *Pager, pgno Pgno) *Page {
		pg, err := p.Get(pgno)
		if err != nil {
			t.Fatal(err)
		}
		return pg
	}
	noAllocs := func(t *testing.T, what string, f func()) {
		for i := 0; i < 2*dbPages; i++ {
			f()
		}
		if allocs := testing.AllocsPerRun(4*dbPages, f); allocs != 0 {
			t.Errorf("%s allocates %.1f objects, want 0", what, allocs)
		}
	}
	for _, mode := range []JournalMode{WAL, Off} {
		t.Run(mode.String(), func(t *testing.T) {
			_, p := populated(t, mode)
			next := Pgno(0)
			noAllocs(t, "Get on an evicted page", func() { // cycling through 8x the cache: every Get misses
				next = next%dbPages + 1
				get(t, p, next).Release()
			})
		})
	}
	t.Run("allocate", func(t *testing.T) {
		_, p := populated(t, WAL)
		next := Pgno(1)
		for pgno := Pgno(2); pgno < 2+cacheSize; pgno++ {
			get(t, p, pgno).Release()
		}
		noAllocs(t, "Allocate on a full cache", func() {
			next = next%(dbPages-1) + 2 // pages 2..dbPages: page 1 is the header Allocate writes
			get(t, p, next).Release()
			if err := p.Begin(); err != nil {
				t.Fatal(err)
			}
			pg, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			pg.Release()
			if len(p.cache) != cacheSize {
				t.Fatalf("%d pages cached after an Allocate, want a full cache of %d", len(p.cache), cacheSize)
			}
			if err := p.Rollback(); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("rollback", func(t *testing.T) {
		_, p := populated(t, Off)
		noAllocs(t, "Get of a page Rollback dropped", func() {
			if err := p.Begin(); err != nil {
				t.Fatal(err)
			}
			pg := get(t, p, 2)
			if err := p.Write(pg); err != nil {
				t.Fatal(err)
			}
			pg.Release()
			if err := p.Rollback(); err != nil {
				t.Fatal(err)
			}
			get(t, p, 2).Release()
		})
	})
	t.Run("advance", func(t *testing.T) {
		e, w := populated(t, Off)
		snap, err := e.fs.OpenSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		r, err := OpenReader(e.fs, w.Name(), snap, Config{Mode: Off, CacheSize: cacheSize})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		changed := []int64{2, 3, 4, 5} // file pages: pgnos 3..6
		noAllocs(t, "Get of a page Advance dropped", func() {
			if _, err := r.Advance(snap, changed); err != nil {
				t.Fatal(err)
			}
			for _, idx := range changed {
				get(t, r, Pgno(idx+1)).Release()
			}
		})
	})
}

// A WAL commit of one updated page reuses the pager's scratch — the frame
// map, the commit record's sorted page numbers, the log index a checkpoint
// empties — and the file system re-images the grown log over the page
// table of its last image. In steady state, checkpoints included (every
// 25 commits here), it allocates nothing.
func TestWALPointCommitAllocs(t *testing.T) {
	const dbPages = 16
	e := newEnv(t, WAL)
	p := openPager(t, e, WAL, 100)
	defer p.Close()
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	grow(t, p, dbPages-1)
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	next := Pgno(1)
	commit := func() {
		next = next%dbPages + 1
		if err := p.Begin(); err != nil {
			t.Fatal(err)
		}
		pg, err := p.Get(next)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(pg); err != nil {
			t.Fatal(err)
		}
		pg.Data()[100]++
		pg.Release()
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		commit()
	}
	before := p.Checkpoints.Load()
	if allocs := testing.AllocsPerRun(200, commit); allocs != 0 {
		t.Errorf("a one-page WAL commit allocates %.2f objects, want 0", allocs)
	}
	if p.Checkpoints.Load() == before {
		t.Error("no checkpoint ran while the commits were measured")
	}
}
