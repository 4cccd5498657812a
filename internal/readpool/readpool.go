// Package readpool keeps warm, read-only snapshot connections for
// reuse across short read transactions. Opening a snapshot session is
// cheap on the device (one sequence number) but expensive on the host:
// a fresh pager cache plus a catalog re-read, which dominates
// short-read latency. The pool parks finished reader connections —
// pager cache, catalog, compiled statements and all — and hands the
// warmest back to the next reader. One whose snapshot a commit has
// since overtaken is advanced rather than closed: X-FTL keeps an old
// version only of the pages a commit rewrote, so the new snapshot
// differs from the old in exactly the pages the file system's change
// log names (simfs.FS.ChangesSince), and only those leave the cache.
//
// One the log cannot advance — past a commit that changed the file's
// size or the namespace, across a sequence with no record, or older
// than the log reaches — is re-seated instead (sqlite.DB.Reseat): its
// cache empties and its header and catalog reload over the new
// snapshot, but its frames and compiled statements stay. An idle
// connection older than the log's reach gives up its snapshot at once
// and waits unseated for its next checkout, which bounds what idle
// connections pin: no superseded version older than the log's reach.
// A connection is closed only at a power cut (the epoch moved), for
// capacity, or when the device fails its re-read.
//
// The pool's connections share one page budget, capacity × the
// per-connection cache size: each of the L live ones, idle or checked
// out, may cache max(cacheSize, budget/L) pages. The database's writer
// connection may cache its own cacheSize plus whatever part of the
// budget the live connections are not entitled to: all of it while none
// is live. A connection takes its share at checkout and at its cold
// open, and idle ones are cut to the new share when L grows. Both shares
// are functions of L alone, so a checked-out connection and the writer
// compare their limit with the share of the current L at each statement
// (Resize, SizeWriter): a cut lands at the owner's next statement.
//
// The shape follows the classic pinned-aware LRU buffer pool: a
// bounded free stack, last-in-first-out so the warmest cache is reused
// first, coldest-first eviction on capacity. Checked-out connections
// belong to their session; the pool only counts them.
package readpool

import (
	"sync"
	"sync/atomic"

	"repro/internal/simfs"
	"repro/internal/sqlite"
	"repro/internal/sqlite/pager"
)

// Conn is one pooled reader connection: an open snapshot plus the
// sqlite connection reading through it. While checked out it belongs
// to exactly one session; while pooled it belongs to the pool.
type Conn struct {
	DB *sqlite.DB
	// Snap is the snapshot DB reads through; nil while the connection is
	// unseated, parked without one until its next checkout re-seats it.
	Snap *simfs.Snapshot

	changed []int64 // Advance's page list, kept for the next one
}

// Fresh reports whether c reads through a snapshot at seq or later, so
// its reader need not Advance it.
func (c *Conn) Fresh(seq uint64) bool { return c.Snap != nil && c.Snap.Seq() >= seq }

// close releases the connection's resources: the sqlite side first,
// then the device snapshot it reads through, if any. Snapshot close
// after a power cut is a no-op on the device, so draining a stale pool
// across a crash is safe.
func (c *Conn) close() {
	_ = c.DB.Close()
	c.unseat()
}

// unseat closes the connection's snapshot, keeping the rest.
func (c *Conn) unseat() {
	if c.Snap != nil {
		_ = c.Snap.Close()
		c.Snap = nil
	}
}

// Stats is a point-in-time copy of the pool counters.
type Stats struct {
	Hits          int64 // checkouts served from a warm connection: current, advanced or re-seated
	Misses        int64 // checkouts the caller had to cold-open
	Advances      int64 // hits whose connection was advanced over the change log
	Evictions     int64 // connections closed for capacity
	Invalidations int64 // connections the change log could not advance: re-seated, or closed at a power cut
	Idle          int   // warm connections currently pooled
}

// Pool is a warm reader-connection pool. All methods are safe for
// concurrent use.
type Pool struct {
	mu     sync.Mutex
	limit  int     // idle connections kept warm at most
	cache  int     // a connection's cache size, and the least share
	budget int     // cache pages the live connections share: limit × cache
	epoch  uint64  // power-cut epoch every pooled connection was opened in
	floor  uint64  // oldest snapshot sequence the change log can still advance
	free   []*Conn // LIFO: the top entry has the warmest cache
	closed bool

	// live counts the connections idle or checked out. Written under mu,
	// read without it by the owners' share checks.
	live atomic.Int64

	hits          atomic.Int64
	misses        atomic.Int64
	advances      atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

// New builds a pool keeping at most capacity idle connections warm
// (zero or negative: 8), whose connections share capacity × cacheSize
// cache pages, none getting fewer than cacheSize (zero or negative: the
// pager's default).
func New(capacity, cacheSize int) *Pool {
	if capacity <= 0 {
		capacity = 8
	}
	if cacheSize <= 0 {
		cacheSize = pager.DefaultCacheSize
	}
	return &Pool{limit: capacity, cache: cacheSize, budget: capacity * cacheSize,
		free: make([]*Conn, 0, capacity)}
}

// share is the cache pages each of live connections may hold:
// max(cacheSize, budget/live).
func (p *Pool) share(live int) int {
	return max(p.cache, p.budget/max(live, 1))
}

// writerShare is the cache pages the writer connection may hold beside
// live connections: cacheSize plus the part of the budget their shares
// leave over.
func (p *Pool) writerShare(live int) int {
	return p.cache + p.budget - min(p.budget, live*p.share(live))
}

// Resize is a checked-out connection's share check, made by its owner at
// each statement: c's cache is set to the share of the connections live
// now, if it is not there already. The error is the pager's
// (SetCacheSize).
func (p *Pool) Resize(c *Conn) error {
	return resize(c.DB.Pager(), p.share(int(p.live.Load())))
}

// SizeWriter is the writer connection's share check: pg's cache is set to
// the writer's share of the connections live now (all of the budget on
// top of cacheSize while none is), if it is not there already. The caller
// owns pg: it holds the database's writer lock, or knows no one does. The
// error is the pager's: a shrink inside a write transaction may steal a
// dirty page, and that write may fail.
func (p *Pool) SizeWriter(pg *pager.Pager) error {
	return resize(pg, p.writerShare(int(p.live.Load())))
}

// resize sets pg's cache to pages if it is not there already.
func resize(pg *pager.Pager, pages int) error {
	if pg.CacheSize() == pages {
		return nil
	}
	return pg.SetCacheSize(pages)
}

// Adopt counts a reader the caller has just cold-opened over snap as one
// of the pool's live connections and sizes its cache to its share, which
// the idle ones are cut to as well. The caller Returns it when done.
func (p *Pool) Adopt(db *sqlite.DB, snap *simfs.Snapshot) *Conn {
	c := &Conn{DB: db, Snap: snap}
	p.mu.Lock()
	share := p.share(int(p.live.Add(1)))
	for _, idle := range p.free {
		if idle.DB.Pager().CacheSize() > share {
			_ = idle.DB.Pager().SetCacheSize(share)
		}
	}
	p.mu.Unlock()
	_ = db.Pager().SetCacheSize(share)
	return c
}

// Checkout returns the warmest pooled connection, its cache sized to its
// share, or nil when the caller must cold-open (pool empty or closed).
// seq is the committed sequence the reader must see at least, epoch the
// file system's power-cut epoch and floor its simfs.FS.AdvanceFloor: a
// connection from another epoch is closed first, and an idle one older
// than floor unseated. A connection that is unseated or behind seq is
// the caller's to Advance.
func (p *Pool) Checkout(seq, epoch, floor uint64) *Conn {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	if epoch != p.epoch {
		// The device power-cycled: sequence numbers from before the cut
		// name no state the change log can vouch for.
		p.invalidations.Add(int64(len(p.free)))
		p.drainLocked()
		p.epoch = epoch
	}
	p.floor = floor
	p.unseatBelowFloorLocked()
	var c *Conn
	if n := len(p.free); n > 0 {
		c = p.free[n-1]
		p.free = p.free[:n-1]
	}
	share := p.share(int(p.live.Load()))
	p.mu.Unlock()
	switch {
	case c == nil:
		p.misses.Add(1)
		return nil
	case c.Fresh(seq):
		p.hits.Add(1)
	}
	_ = c.DB.Pager().SetCacheSize(share)
	return c
}

// Advance brings a checked-out connection that is unseated or behind up
// to snap, a snapshot the caller has just opened at a later sequence, and
// it reads through snap from now on (its old snapshot is closed). The
// pages the commits in between wrote leave its cache; where the change
// log cannot say which pages those are, the connection is re-seated. It
// reports false when neither can be done — a power cut came in between,
// or the device failed the header or catalog read — and the connection
// is then closed, and the caller cold-opens over snap.
func (p *Pool) Advance(c *Conn, fs *simfs.FS, snap *simfs.Snapshot) bool {
	old := c.Snap
	var err error
	switch {
	case old == nil:
		err = c.DB.Reseat(snap)
	case old.Epoch() != snap.Epoch():
		p.invalidations.Add(1)
		p.discard(c)
		return false
	default:
		var ok bool
		c.changed, ok = fs.ChangesSince(c.changed[:0], c.DB.Pager().Name(), old.Seq(), snap.Seq())
		if ok {
			err = c.DB.Advance(snap, c.changed)
			p.advances.Add(1)
		} else {
			err = c.DB.Reseat(snap)
			p.invalidations.Add(1)
		}
	}
	if err != nil {
		p.discard(c)
		return false
	}
	c.Snap = snap
	if old != nil {
		_ = old.Close()
	}
	p.hits.Add(1)
	return true
}

// discard closes a checked-out connection Advance could not bring up to
// date; its reader cold-opens instead.
func (p *Pool) discard(c *Conn) {
	c.close()
	p.mu.Lock()
	p.live.Add(-1)
	p.mu.Unlock()
	p.misses.Add(1)
}

// Return parks a connection for reuse, its cache cut to its share: one
// older than the floor the last Checkout saw gives up its snapshot and
// parks unseated. One from another epoch than the pool's is closed, and
// the coldest pooled connection is when the pool is full. Reports
// whether the connection was pooled.
func (p *Pool) Return(c *Conn) bool {
	p.mu.Lock()
	if p.closed || c.Snap != nil && c.Snap.Epoch() != p.epoch {
		p.live.Add(-1)
		closed := p.closed
		p.mu.Unlock()
		c.close()
		if !closed {
			p.invalidations.Add(1)
		}
		return false
	}
	if c.Snap != nil && c.Snap.Seq() < p.floor {
		c.unseat()
		p.invalidations.Add(1)
	}
	if share := p.share(int(p.live.Load())); c.DB.Pager().CacheSize() > share {
		_ = c.DB.Pager().SetCacheSize(share)
	}
	if len(p.free) >= p.limit {
		// Evict the coldest to make room for the warmer returner.
		p.free[0].close()
		copy(p.free, p.free[1:])
		p.free = p.free[:len(p.free)-1]
		p.live.Add(-1)
		p.evictions.Add(1)
	}
	p.free = append(p.free, c)
	p.mu.Unlock()
	return true
}

// unseatBelowFloorLocked closes the snapshot of every pooled connection
// the change log can no longer advance. Caller holds p.mu.
func (p *Pool) unseatBelowFloorLocked() {
	for _, c := range p.free {
		if c.Snap != nil && c.Snap.Seq() < p.floor {
			c.unseat()
			p.invalidations.Add(1)
		}
	}
}

// drainLocked closes every pooled connection. Caller holds p.mu.
func (p *Pool) drainLocked() {
	for _, c := range p.free {
		c.close()
	}
	p.live.Add(-int64(len(p.free)))
	p.free = p.free[:0]
}

// Close drains the pool and rejects further Returns (they close their
// connections instead). Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	p.drainLocked()
}

// Idle reports how many warm connections are currently pooled.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// Live reports how many connections the pool counts: idle or checked out.
func (p *Pool) Live() int { return int(p.live.Load()) }

// CachePages reports how many pages the pooled connections' caches hold.
func (p *Pool) CachePages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.free {
		n += c.DB.Pager().CachedPages()
	}
	return n
}

// Stats copies the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		Advances:      p.advances.Load(),
		Evictions:     p.evictions.Load(),
		Invalidations: p.invalidations.Load(),
		Idle:          p.Idle(),
	}
}
