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
// A connection is closed instead when the log cannot advance it: after
// a power cut (the epoch moved), past a commit that changed the file's
// size or the namespace, across a sequence with no record, or once it
// is older than the log reaches. The last rule also bounds what idle
// connections pin: no superseded version older than the log's reach.
//
// The shape follows the classic pinned-aware LRU buffer pool: a
// bounded free stack, last-in-first-out so the warmest cache is reused
// first, coldest-first eviction on capacity. Checked-out connections
// are owned by their session and never tracked here — there is
// nothing to pin.
package readpool

import (
	"sync"
	"sync/atomic"

	"repro/internal/simfs"
	"repro/internal/sqlite"
)

// Conn is one pooled reader connection: an open snapshot plus the
// sqlite connection reading through it. While checked out it belongs
// to exactly one session; while pooled it belongs to the pool.
type Conn struct {
	DB   *sqlite.DB
	Snap *simfs.Snapshot

	changed []int64 // Advance's page list, kept for the next one
}

// NewConn wraps a freshly cold-opened reader for later Return.
func NewConn(db *sqlite.DB, snap *simfs.Snapshot) *Conn {
	return &Conn{DB: db, Snap: snap}
}

// close releases the connection's resources: the sqlite side first,
// then the device snapshot it reads through. Snapshot close after a
// power cut is a no-op on the device, so draining a stale pool across
// a crash is safe.
func (c *Conn) close() {
	_ = c.DB.Close()
	_ = c.Snap.Close()
}

// Stats is a point-in-time copy of the pool counters.
type Stats struct {
	Hits          int64 // checkouts served from a warm connection, advanced or not
	Misses        int64 // checkouts the caller had to cold-open
	Advances      int64 // hits whose connection was advanced past later commits
	Evictions     int64 // connections dropped for capacity
	Invalidations int64 // connections closed because the change log could not advance them
	Idle          int   // warm connections currently pooled
}

// Pool is a warm reader-connection pool. All methods are safe for
// concurrent use.
type Pool struct {
	mu     sync.Mutex
	limit  int     // idle connections kept warm at most
	epoch  uint64  // power-cut epoch every pooled connection was opened in
	floor  uint64  // oldest snapshot sequence the change log can still advance
	free   []*Conn // LIFO: the top entry has the warmest cache
	closed bool

	hits          atomic.Int64
	misses        atomic.Int64
	advances      atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

// New builds a pool keeping at most capacity idle connections warm
// (zero or negative: 8). Disable pooling by not constructing a pool.
func New(capacity int) *Pool {
	if capacity <= 0 {
		capacity = 8
	}
	return &Pool{limit: capacity, free: make([]*Conn, 0, capacity)}
}

// Checkout returns the warmest pooled connection, or nil when the caller
// must cold-open (pool empty or closed). seq is the committed sequence
// the reader must see at least, epoch the file system's power-cut epoch
// and floor its simfs.FS.AdvanceFloor: a connection from another epoch,
// or older than floor, is closed first. A connection behind seq is the
// caller's to Advance.
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
	p.dropBelowFloorLocked()
	var c *Conn
	if n := len(p.free); n > 0 {
		c = p.free[n-1]
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	switch {
	case c == nil:
		p.misses.Add(1)
	case c.Snap.Seq() >= seq:
		p.hits.Add(1)
	}
	return c
}

// Advance brings a checked-out connection that is behind up to snap, a
// snapshot the caller has just opened at a later sequence: the pages the
// commits in between wrote leave its cache, and it reads through snap
// from now on (its old snapshot is closed). It reports false when the
// change log cannot say which pages those are; the connection is then
// closed, and the caller cold-opens over snap.
func (p *Pool) Advance(c *Conn, fs *simfs.FS, snap *simfs.Snapshot) bool {
	old := c.Snap
	var ok bool
	c.changed, ok = fs.ChangesSince(c.changed[:0], c.DB.Pager().Name(), old.Seq(), snap.Seq())
	if ok && old.Epoch() == snap.Epoch() && c.DB.Advance(snap, c.changed) == nil {
		c.Snap = snap
		_ = old.Close()
		p.hits.Add(1)
		p.advances.Add(1)
		return true
	}
	c.close()
	p.invalidations.Add(1)
	p.misses.Add(1)
	return false
}

// Return parks a connection for reuse, unless it is from another epoch
// than the pool's or older than the floor the last Checkout saw: then
// it is closed. The coldest pooled connection is evicted when the pool
// is full. Reports whether the connection was pooled.
func (p *Pool) Return(c *Conn) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.close()
		return false
	}
	if c.Snap.Epoch() != p.epoch || c.Snap.Seq() < p.floor {
		p.mu.Unlock()
		c.close()
		p.invalidations.Add(1)
		return false
	}
	if len(p.free) >= p.limit {
		// Evict the coldest to make room for the warmer returner.
		p.free[0].close()
		copy(p.free, p.free[1:])
		p.free = p.free[:len(p.free)-1]
		p.evictions.Add(1)
	}
	p.free = append(p.free, c)
	p.mu.Unlock()
	return true
}

// dropBelowFloorLocked closes every pooled connection the change log can
// no longer advance. Caller holds p.mu.
func (p *Pool) dropBelowFloorLocked() {
	kept := p.free[:0]
	for _, c := range p.free {
		if c.Snap.Seq() < p.floor {
			c.close()
			p.invalidations.Add(1)
		} else {
			kept = append(kept, c)
		}
	}
	p.free = kept
}

// drainLocked closes every pooled connection. Caller holds p.mu.
func (p *Pool) drainLocked() {
	for _, c := range p.free {
		c.close()
	}
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
