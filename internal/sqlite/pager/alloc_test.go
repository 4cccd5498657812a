//go:build !race

package pager

import "testing"

// A cache miss reads into the frame of the page it evicts: at most the
// Page header itself is allocated, never a page buffer. (Not under
// -race: the race runtime allocates.)
func TestGetMissAllocsAtMostOne(t *testing.T) {
	const cacheSize, dbPages = 8, 64
	for _, mode := range []JournalMode{WAL, Off} {
		t.Run(mode.String(), func(t *testing.T) {
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
			defer p.Close()
			next := Pgno(0)
			miss := func() { // cycling through 8x the cache: every Get misses
				next = next%dbPages + 1
				pg, err := p.Get(next)
				if err != nil {
					t.Fatal(err)
				}
				pg.Release()
			}
			for i := 0; i < 2*dbPages; i++ {
				miss()
			}
			if allocs := testing.AllocsPerRun(4*dbPages, miss); allocs > 1 {
				t.Errorf("Get on an evicted page allocates %.1f objects, want at most 1", allocs)
			}
		})
	}
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
