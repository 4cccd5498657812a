package pager

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refCache is the eviction policy as it was first written, kept as the
// reference: a list of page numbers in load order, rebuilt in full on
// every eviction — entries whose page is no longer cached are dropped,
// the first unpinned cached page is the victim, everything else keeps
// its place. The pager's frame list must pick the same victims at O(1).
type refCache struct {
	size   int
	in     map[Pgno]bool
	pins   map[Pgno]int
	dirty  map[Pgno]bool
	stolen map[Pgno]bool
	clock  []Pgno
}

func (r *refCache) get(pgno Pgno) {
	if !r.in[pgno] {
		r.makeRoom()
		r.in[pgno] = true
		r.clock = append(r.clock, pgno)
	}
	r.pins[pgno]++
}

func (r *refCache) makeRoom() {
	for len(r.in) >= r.size {
		evicted := false
		keep := r.clock[:0]
		for _, pgno := range r.clock {
			if !r.in[pgno] {
				continue
			}
			if evicted || r.pins[pgno] > 0 {
				keep = append(keep, pgno)
				continue
			}
			if r.dirty[pgno] {
				delete(r.dirty, pgno)
				r.stolen[pgno] = true
			}
			delete(r.in, pgno)
			evicted = true
		}
		r.clock = keep
	}
}

// rollback drops what Pager.Rollback drops: every page the transaction
// wrote, dirty still or stolen and read back since.
func (r *refCache) rollback() {
	for pgno := range r.dirty {
		delete(r.in, pgno)
	}
	for pgno := range r.stolen {
		delete(r.in, pgno)
	}
	clear(r.dirty)
	clear(r.stolen)
}

// TestEvictionOrderMatchesReference drives the pager and the reference
// policy with the same random stream of gets, writes, long-held pins,
// commits and rollbacks, and requires the same set of resident pages
// after every step — that is, the same victim at every eviction.
// (Rollback journal mode is left out: its Write also touches page 1,
// which would need the journal modelled; the policy code is shared.)
func TestEvictionOrderMatchesReference(t *testing.T) {
	const cacheSize, dbPages = 8, 40
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

			ref := &refCache{size: cacheSize, in: map[Pgno]bool{}, pins: map[Pgno]int{},
				dirty: map[Pgno]bool{}, stolen: map[Pgno]bool{}}
			for pgno := range p.cache { // whatever Open left resident
				ref.in[pgno] = true
				ref.clock = append(ref.clock, pgno)
			}
			slices.Sort(ref.clock)

			rng := rand.New(rand.NewSource(int64(mode) + 1))
			var held []*Page
			release := func(i int) {
				pg := held[i]
				held = slices.Delete(held, i, i+1)
				pg.Release()
				ref.pins[pg.Pgno()]--
			}
			inTx := false
			for step := 0; step < 5000; step++ {
				op := ""
				switch k := rng.Intn(100); {
				case k < 70:
					pgno := Pgno(1 + rng.Intn(dbPages))
					write := inTx && rng.Intn(3) == 0
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
					if len(held) > 3 || rng.Intn(2) == 0 {
						release(rng.Intn(len(held)))
					}
				case k < 80 && len(held) > 0:
					op = "release"
					release(rng.Intn(len(held)))
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
			}
		})
	}
}
