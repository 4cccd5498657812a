package pager

import (
	"sync"

	"repro/internal/simfs"
)

// forever ends the interval of a version no commit has superseded yet.
const forever = ^uint64(0)

// Table is one database's shared page cache: the committed page versions
// its read-only connections read, each frame valid for the snapshots
// whose commit sequence lies in its interval [from, to). It holds on the
// host what X-L2P holds on the device (paper §4–§5): a page's old and new
// version side by side, the old one read by the snapshots that began
// before the commit that superseded it.
//
// A read-only pager has no cache of its own. Its Get pins the frame valid
// at its snapshot's sequence s; a miss reads the page from the snapshot
// into a frame inserted under an interval the table can vouch for:
// [last, ∞) when no commit after last changed the page and none is
// changing it, else [s, s+1).
//
// The writer's pager keeps a private cache and trades clean committed
// pages with the table by pointer, so a frame lives in one place at a
// time: its eviction hands one over, its miss takes the current version
// back (a copy only while a reader pins it), and its commit hands over
// the pages it wrote, valid from the commit's sequence. A page goes to
// the device uncommitted — staged for a commit, or stolen — only once it
// is marked pending, which closes its open interval: a reader insert
// racing the commit gets [s, s+1), and the writer never takes a frame of
// a page in its write set. The commit's outcome clears the mark.
// Uncommitted pages never enter the table.
//
// The table keeps at most limit frames, resident or free, beyond those
// that readers pin when it has nothing else to evict; the least recently
// released unpinned frame goes first. A snapshot of a newer power-cut
// epoch empties it: sequences do not compare across a cut. One mutex
// guards it; page reads run outside.
type Table struct {
	fs       *simfs.FS
	limit    int
	pageSize int

	mu       sync.Mutex
	pages    map[Pgno]*versions
	lru      Page  // sentinel of the resident unpinned frames, coldest at lru.next
	free     *Page // linked by next
	frames   int   // frames the table owns: resident, free or being loaded
	resident int
	epoch    uint64
	birth    uint64 // every commit since is marked in pages
}

// versions is one page's place in the table.
type versions struct {
	last    uint64 // no commit after last changed the page, unless pending
	pending bool   // a newer version is on its way to the device
	head    *Page  // resident frames, linked by older
}

// NewTable builds the frame table of a database on fsys, keeping at most
// frames pages.
func NewTable(fsys *simfs.FS, frames int) *Table {
	t := &Table{fs: fsys, limit: frames, pageSize: fsys.PageSize(), pages: make(map[Pgno]*versions),
		epoch: fsys.Epoch(), birth: fsys.Device().CommitSeq()}
	t.lru.prev, t.lru.next = &t.lru, &t.lru
	return t
}

// Resident reports how many page versions the table holds.
func (t *Table) Resident() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.resident
}

// at returns pgno's place in the table, made on first use.
func (t *Table) at(pgno Pgno) *versions {
	v := t.pages[pgno]
	if v == nil {
		v = new(versions)
		t.pages[pgno] = v
	}
	return v
}

// get is a read-only pager's Get: the frame valid at its snapshot's
// sequence, pinned, read from the snapshot on a miss.
func (t *Table) get(p *Pager, pgno Pgno) (*Page, error) {
	seq, epoch := p.snap.Seq(), p.snap.Epoch()
	t.mu.Lock()
	if epoch > t.epoch {
		t.reset(epoch)
	}
	if pg := t.find(pgno, seq); pg != nil && epoch == t.epoch {
		t.pin(pg)
		t.mu.Unlock()
		return pg, nil
	}
	pg := t.spare()
	t.mu.Unlock()
	err := p.read(pgno, pg.data)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.drop(pg)
		return nil, err
	}
	return t.insert(pg, pgno, seq, epoch), nil
}

// insert makes pg, just read for pgno by a reader at seq, the version
// valid there, pinned once — unless a racing reader inserted that version
// first, whose frame is pinned instead. A reader from an older epoch than
// the table's keeps pg to itself until it releases it.
func (t *Table) insert(pg *Page, pgno Pgno, seq, epoch uint64) *Page {
	pg.pgno, pg.pins = pgno, 1
	if epoch != t.epoch {
		return pg
	}
	if have := t.find(pgno, seq); have != nil {
		t.drop(pg)
		t.pin(have)
		return have
	}
	v := t.at(pgno)
	from, to := seq, seq+1
	if last := max(v.last, t.birth); !v.pending && last <= seq {
		from, to = last, forever
	}
	t.link(pg, v, from, to)
	return pg
}

// find returns pgno's resident frame valid at seq, or nil.
func (t *Table) find(pgno Pgno, seq uint64) *Page {
	for pg := t.at(pgno).head; pg != nil; pg = pg.older {
		if pg.from <= seq && seq < pg.to {
			return pg
		}
	}
	return nil
}

// current returns v's open frame: the page's current committed version.
func (v *versions) current() *Page {
	pg := v.head
	for pg != nil && pg.to != forever {
		pg = pg.older
	}
	return pg
}

// pin takes a pin on a frame the table owns; the first leaves the LRU.
func (t *Table) pin(pg *Page) {
	if pg.pins == 0 && pg.resident {
		unlinkLRU(pg)
	}
	pg.pins++
}

// release is Page.Release for a table frame: its last unpin makes it the
// most recently used, or frees it if it is no longer resident.
func (t *Table) release(pg *Page) {
	t.mu.Lock()
	if pg.pins > 0 {
		if pg.pins--; pg.pins == 0 {
			if pg.resident {
				t.toLRU(pg)
			} else {
				t.drop(pg)
			}
		}
	}
	t.mu.Unlock()
}

// spare returns a frame to load a page into: a free one, else, once the
// table holds its limit, the least recently released one, evicted, else
// a new one.
func (t *Table) spare() *Page {
	if t.free != nil || t.frames >= t.limit {
		if pg := t.unused(); pg != nil {
			return pg
		}
	}
	t.frames++
	return &Page{data: make([]byte, t.pageSize), table: t}
}

// surplus hands the writer a frame the table holds over its limit; nil
// when it is within its limit or has nothing unpinned.
func (t *Table) surplus() *Page {
	if t.frames <= t.limit {
		return nil
	}
	pg := t.unused()
	if pg != nil {
		t.frames--
		pg.table = nil
	}
	return pg
}

// unused takes a free frame, else the least recently released resident
// one, evicted; nil if there is neither.
func (t *Table) unused() *Page {
	pg := t.free
	switch {
	case pg != nil:
		t.free, pg.next = pg.next, nil
	case t.lru.next != &t.lru:
		pg = t.lru.next
		t.evict(pg)
	}
	return pg
}

// drop puts a frame that holds nothing the table keeps on the free list.
func (t *Table) drop(pg *Page) {
	pg.pins, pg.resident = 0, false
	pg.next, t.free = t.free, pg
}

// link makes pg a resident version of its page, valid over [from, to).
func (t *Table) link(pg *Page, v *versions, from, to uint64) {
	pg.from, pg.to, pg.resident = from, to, true
	pg.older, v.head = v.head, pg
	t.resident++
}

// evict takes an unpinned resident frame out of the table's keeping.
func (t *Table) evict(pg *Page) {
	unlinkLRU(pg)
	for at := &t.pages[pg.pgno].head; *at != nil; at = &(*at).older {
		if *at == pg {
			*at = pg.older
			break
		}
	}
	pg.older, pg.resident = nil, false
	t.resident--
}

// toLRU puts an unpinned resident frame at the LRU's hot end.
func (t *Table) toLRU(pg *Page) {
	pg.prev, pg.next = t.lru.prev, &t.lru
	t.lru.prev.next, t.lru.prev = pg, pg
}

// unlinkLRU takes a frame off the list it is on.
func unlinkLRU(pg *Page) {
	pg.prev.next, pg.next.prev = pg.next, pg.prev
	pg.prev, pg.next = nil, nil
}

// reset empties the table for a new power-cut epoch. Pinned frames leave
// when released; pending marks stay, since their commits are still out.
func (t *Table) reset(epoch uint64) {
	for pgno, v := range t.pages {
		for pg := v.head; pg != nil; {
			older := pg.older
			pg.older, pg.resident = nil, false
			if pg.pins == 0 {
				unlinkLRU(pg)
				t.drop(pg)
			}
			pg = older
		}
		if *v = (versions{pending: v.pending}); !v.pending {
			delete(t.pages, pgno)
		}
	}
	t.resident = 0
	t.epoch, t.birth = epoch, t.fs.Device().CommitSeq()
}

// changed reports whether pgno may differ between sequence since and
// snap's: a commit after since changed it or is changing it, or the table
// cannot tell — since predates what it has followed, or snap is of
// another epoch.
func (t *Table) changed(pgno Pgno, since uint64, snap *simfs.Snapshot) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.at(pgno)
	return v.pending || max(v.last, t.birth) > since || snap.Epoch() != t.epoch
}

// take is the writer's miss on pgno: the frame of the page's current
// committed version, handed over in exchange for the head of the writer's
// free list, if any, which joins the table's — or, while a reader pins
// it, pinned once more for the caller to copy and release (shared). nil
// when the table has no current version of the page or it is pending.
func (t *Table) take(pgno Pgno, free **Page) (pg *Page, shared bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.at(pgno)
	if pg = v.current(); v.pending || pg == nil {
		return nil, false
	}
	if pg.pins > 0 {
		pg.pins++
		return pg, true
	}
	t.evict(pg)
	pg.table = nil
	if spare := *free; spare != nil {
		*free, spare.table = spare.next, t
		t.drop(spare)
	} else {
		t.frames--
	}
	return pg, false
}

// give is the writer's eviction of pg, a clean page of committed content:
// the table keeps it as the page's current version, unless it has one or
// the page is pending. It returns the frame the writer keeps for its next
// miss: pg if the table did not keep it, else one the table holds over
// its limit, if any.
func (t *Table) give(pg *Page) *Page {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.at(pg.pgno)
	if v.pending || v.current() != nil {
		return pg
	}
	t.adopt(pg, v, max(v.last, t.birth))
	return t.surplus()
}

// adopt makes the writer's frame pg the version of its page valid from
// from on.
func (t *Table) adopt(pg *Page, v *versions, from uint64) {
	pg.table = t
	t.frames++
	t.link(pg, v, from, forever)
	t.toLRU(pg)
}

// pend marks pages pending before the writer sends new versions of them
// to the device: their open intervals close at the sequence after the
// current one, which the commit carrying the new versions cannot precede.
func (t *Table) pend(pgnos ...Pgno) {
	next := t.fs.Device().CommitSeq() + 1
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, pgno := range pgnos {
		if v := t.at(pgno); !v.pending {
			v.pending = true
			if pg := v.current(); pg != nil {
				pg.to = next
			}
		}
	}
}

// publish settles the pending pages among pgnos once the commit that
// carried them has ended: their marks clear, no older than the sequence
// now — which a failed commit may still have reached. Committed (ok), the
// writer p's clean copies become their versions valid from there, handed
// over from its cache, and the table hands back any frames that puts it
// over its limit.
func (t *Table) publish(p *Pager, pgnos []Pgno, ok bool) {
	seq := t.fs.Device().CommitSeq()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, pgno := range pgnos {
		v := t.at(pgno)
		if !v.pending {
			continue // not sent, or a repeat
		}
		v.pending, v.last = false, max(v.last, seq)
		if pg := p.cache[pgno]; ok && pg != nil && !pg.dirty && pg.pins == 0 {
			p.uncache(pg)
			t.adopt(pg, v, v.last)
		}
	}
	for pg := t.surplus(); pg != nil; pg = t.surplus() {
		pg.next, p.free = p.free, pg
	}
}
