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
