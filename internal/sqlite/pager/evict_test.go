package pager

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refCache is SQLite 3.7.10's pcache1 recycling rule, kept as the
// reference: a resident page is either pinned or on the LRU list, which
// holds the unpinned pages in the order of their last unpin, and a miss on
// a full cache recycles the list's head, the least recently unpinned page.
// A page a rollback drops leaves the cache and the list; read again, it is
// a miss like any other and joins the list's tail at its next last unpin.
// (The pager keeps a dropped frame's old place until its next eviction
// pass, but a reloaded frame is pinned, and a pinned frame's place is
// never looked at.) The pager's frame list must pick the same victims.
type refCache struct {
	size   int
	in     map[Pgno]bool
	pins   map[Pgno]int
	dirty  map[Pgno]bool
	stolen map[Pgno]bool
	lru    []Pgno
}

func (r *refCache) get(pgno Pgno) {
	if !r.in[pgno] {
		r.makeRoom()
		r.in[pgno] = true
	} else if r.pins[pgno] == 0 {
		r.unlist(pgno)
	}
	r.pins[pgno]++
}

func (r *refCache) release(pgno Pgno) {
	if r.pins[pgno]--; r.pins[pgno] == 0 && r.in[pgno] {
		r.lru = append(r.lru, pgno)
	}
}

func (r *refCache) unlist(pgno Pgno) {
	r.lru = slices.DeleteFunc(r.lru, func(q Pgno) bool { return q == pgno })
}

func (r *refCache) makeRoom() { r.evictTo(r.size - 1) }

// resize is Pager.SetCacheSize: a smaller cache recycles the list's head
// until it fits.
func (r *refCache) resize(n int) {
	r.size = n
	r.evictTo(n)
}

func (r *refCache) evictTo(n int) {
	for len(r.in) > n {
		victim := r.lru[0]
		r.lru = r.lru[1:]
		if r.dirty[victim] {
			delete(r.dirty, victim)
			r.stolen[victim] = true
		}
		delete(r.in, victim)
	}
}

// rollback drops what Pager.Rollback drops: every page the transaction
// wrote, dirty still or stolen and read back since.
func (r *refCache) rollback() {
	for _, m := range []map[Pgno]bool{r.dirty, r.stolen} {
		for pgno := range m {
			if r.in[pgno] {
				delete(r.in, pgno)
				r.unlist(pgno)
			}
		}
		clear(m)
	}
}

// TestEvictionOrderMatchesReference drives the pager and the reference
// policy with the same random stream of gets, writes, long-held pins,
// commits, rollbacks and cache resizes, and requires the same set of resident pages
// after every step — that is, the same victim at every eviction.
// (Rollback journal mode is left out: its Write also touches page 1,
// which would need the journal modelled; the policy code is shared.)
func TestEvictionOrderMatchesReference(t *testing.T) {
	for _, mode := range evictionModes {
		t.Run(mode.String(), func(t *testing.T) {
			evictionStream(t, mode, rand.New(rand.NewSource(int64(mode)+1)).Intn, 5000)
		})
	}
}

// FuzzEvictionOrder is the same stream driven by bytes, WAL or Off (the
// first byte picks): after every step the resident pages are those of
// pcache1's rule, refCache's least recently unpinned evicted first. Its seeds are the test's streams, cut to their first
// 60 steps, past the first evictions. Nearly every mutant finds new
// coverage, and minimizing one can take the fuzzer's default minute, so
// run it with -fuzzminimizetime=100x.
func FuzzEvictionOrder(f *testing.F) {
	for i, mode := range evictionModes {
		draw := rand.New(rand.NewSource(int64(mode) + 1)).Intn
		stream := []byte{byte(i)}
		evictionStream(f, mode, func(n int) int {
			v := draw(n)
			stream = append(stream, byte(v)) // every n is at most 100
			return v
		}, 60)
		f.Add(stream)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		mode, b := evictionModes[int(b[0])%len(evictionModes)], b[1:]
		steps := len(b) / 2
		evictionStream(t, mode, func(n int) int {
			if len(b) == 0 {
				return 0
			}
			v := int(b[0]) % n
			b = b[1:]
			return v
		}, steps)
	})
}

var evictionModes = []JournalMode{WAL, Off}

// evictionStream runs steps ops chosen by next (a value in [0, n)) on an
// 8-page cache, resized now and then to 5 to 12 pages, over a 40-page
// database, checking the pager's resident set against refCache's after
// each, and that a shrink let go of the frames it has no room for.
func evictionStream(t testing.TB, mode JournalMode, next func(n int) int, steps int) {
	t.Helper()
	const cacheSize, dbPages = 8, 40
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

	ref := &refCache{size: cacheSize, in: map[Pgno]bool{}, pins: map[Pgno]int{},
		dirty: map[Pgno]bool{}, stolen: map[Pgno]bool{}}
	for pg := p.frames.next; pg != &p.frames; pg = pg.next { // whatever Open left resident
		ref.in[pg.pgno] = true
		ref.lru = append(ref.lru, pg.pgno)
	}

	var held []*Page
	release := func(i int) {
		pg := held[i]
		held = slices.Delete(held, i, i+1)
		pg.Release()
		ref.release(pg.Pgno())
	}
	inTx := false
	for step := 0; step < steps; step++ {
		op := ""
		shrunk := false
		switch k := next(100); {
		case k < 3:
			n := 5 + next(8)
			op = fmt.Sprintf("resize %d", n)
			shrunk = n < p.CacheSize()
			if err := p.SetCacheSize(n); err != nil {
				t.Fatalf("step %d %s: %v", step, op, err)
			}
			ref.resize(n)
		case k < 70:
			pgno := Pgno(1 + next(dbPages))
			write := inTx && next(3) == 0
			op = fmt.Sprintf("get %d (write=%v)", pgno, write)
			pg, err := p.Get(pgno)
			if err != nil {
				t.Fatalf("step %d %s: %v", step, op, err)
			}
			ref.get(pgno)
			if write {
				if err := p.Write(pg); err != nil {
					t.Fatal(err)
				}
				ref.dirty[pgno] = true
			}
			held = append(held, pg)
			if len(held) > 3 || next(2) == 0 {
				release(next(len(held)))
			}
		case k < 80 && len(held) > 0:
			op = "release"
			release(next(len(held)))
		case k < 90 && !inTx:
			op = "begin"
			if err := p.Begin(); err != nil {
				t.Fatal(err)
			}
			inTx = true
		case k < 95 && inTx:
			op = "commit"
			if err := p.Commit(); err != nil {
				t.Fatal(err)
			}
			clear(ref.dirty)
			clear(ref.stolen)
			inTx = false
		case inTx:
			op = "rollback"
			for len(held) > 0 { // as the engine does before rolling back
				release(0)
			}
			if err := p.Rollback(); err != nil {
				t.Fatal(err)
			}
			ref.rollback()
			inTx = false
		default:
			continue
		}
		got, want := sortedPgnos(nil, p.cache), sortedPgnos(nil, ref.in)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d, after %s: resident pages %v, reference policy has %v", step, op, got, want)
		}
		// A frame is made only for a miss that finds none free.
		frames := 0
		for f := p.frames.next; f != &p.frames; f = f.next {
			frames++
		}
		for f := p.free; f != nil; f = f.next {
			frames++
		}
		if frames > cacheSize+dbPages {
			t.Fatalf("step %d: %d frames for a %d-page cache", step, frames, cacheSize)
		}
		if held := len(p.cache) + len(p.dropped); shrunk && frames > max(p.CacheSize(), held) {
			t.Fatalf("step %d, after %s: %d frames kept for %d pages held", step, op, frames, held)
		}
	}
}
