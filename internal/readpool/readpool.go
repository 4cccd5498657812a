// Package readpool keeps warm, read-only snapshot connections for
// reuse across short read transactions. Opening a snapshot session is
// cheap on the device (one sequence number) but costly on the host: a
// catalog re-read and every statement compiled again. The pool parks
// finished reader connections — catalog and compiled statements — and
// hands the most recently used back to the next reader.
//
// A connection caches no pages: its pages are frames of the database's
// one shared page cache (pager.Table), looked up by the snapshot's
// sequence. So a connection whose snapshot a commit has overtaken is
// re-seated over a fresh snapshot (sqlite.DB.Reseat), its header and
// catalog reloaded only if page 1 changed in between.
//
// An idle connection keeps no snapshot older than the newest commit the
// pool's last checkout or return saw: one that sees a newer commit
// closes the snapshots of the idle connections it overtook, which bounds
// the superseded versions they pin on the device, and they park without
// one until their next checkout. A connection is closed only at a power
// cut (the epoch moved), for capacity, or when the device fails its
// re-seat.
//
// The shape follows the classic pinned-aware LRU buffer pool: a
// bounded free stack, last-in-first-out so the warmest connection is
// reused first, coldest-first eviction on capacity. Checked-out
// connections belong to their session; the pool does not track them.
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
	DB *sqlite.DB
	// Snap is the snapshot DB reads through; nil while the connection is
	// parked without one, until its next checkout re-seats it.
	Snap *simfs.Snapshot
}

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
	Hits          int64 // read sessions served by a pooled connection, re-seated or not
	Misses        int64 // read sessions that had to cold-open a connection
	Evictions     int64 // pooled connections closed for capacity
	Invalidations int64 // connections closed unable to serve: from before a power cut, or failed at re-seat
	Idle          int   // warm connections currently pooled
}

// Pool is a warm reader-connection pool. All methods are safe for
// concurrent use.
type Pool struct {
	mu     sync.Mutex
	limit  int     // idle connections kept warm at most
	epoch  uint64  // power-cut epoch every pooled connection was opened in
	seq    uint64  // newest commit sequence a checkout or return saw
	free   []*Conn // LIFO: the top entry is the warmest
	closed bool

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

// New builds a pool keeping at most capacity idle connections warm (zero
// or negative: 8).
func New(capacity int) *Pool {
	if capacity <= 0 {
		capacity = 8
	}
	return &Pool{limit: capacity, free: make([]*Conn, 0, capacity)}
}

// Checkout returns the warmest pooled connection, or nil when the caller
// must cold-open (pool empty or closed). seq is the committed sequence the
// reader must see at least, epoch the file system's power-cut epoch: a
// connection from another epoch is closed first. One returned without a
// snapshot is the caller's to Reseat; one with a snapshot reads at seq or
// later.
func (p *Pool) Checkout(seq, epoch uint64) *Conn {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	if epoch != p.epoch {
		// The device power-cycled: sequence numbers from before the cut
		// do not compare with those after it.
		p.invalidations.Add(int64(len(p.free)))
		p.drainLocked()
		p.epoch = epoch
	}
	p.overtakeLocked(seq)
	var c *Conn
	if n := len(p.free); n > 0 {
		c = p.free[n-1]
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	switch {
	case c == nil:
		p.misses.Add(1)
	case c.Snap != nil:
		p.hits.Add(1)
	}
	return c
}

// Reseat brings a checked-out connection that has no snapshot on to snap,
// a fresh one the caller has just opened, and it reads through snap from
// now on. It reports false when the device fails the header or catalog
// read; the connection is then closed, and the caller cold-opens over
// snap.
func (p *Pool) Reseat(c *Conn, snap *simfs.Snapshot) bool {
	if err := c.DB.Reseat(snap); err != nil {
		c.close()
		p.invalidations.Add(1)
		p.misses.Add(1)
		return false
	}
	c.Snap = snap
	p.hits.Add(1)
	return true
}

// Return parks a connection for reuse; seq is the committed sequence now.
// One from another epoch than the pool's is closed, and the coldest pooled
// connection is when the pool is full. Reports whether the connection was
// pooled.
func (p *Pool) Return(c *Conn, seq uint64) bool {
	p.mu.Lock()
	if p.closed || c.Snap != nil && c.Snap.Epoch() != p.epoch {
		closed := p.closed
		p.mu.Unlock()
		c.close()
		if !closed {
			p.invalidations.Add(1)
		}
		return false
	}
	p.overtakeLocked(seq)
	if c.Snap != nil && c.Snap.Seq() < p.seq {
		c.unseat()
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

// overtakeLocked notes seq, and if it is the newest sequence yet, closes
// the snapshots it overtook among the pooled connections. Caller holds
// p.mu.
func (p *Pool) overtakeLocked(seq uint64) {
	if seq <= p.seq {
		return
	}
	p.seq = seq
	for _, c := range p.free {
		if c.Snap != nil && c.Snap.Seq() < seq {
			c.unseat()
		}
	}
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
		Evictions:     p.evictions.Load(),
		Invalidations: p.invalidations.Load(),
		Idle:          p.Idle(),
	}
}
