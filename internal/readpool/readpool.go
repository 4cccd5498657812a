// Package readpool keeps warm, read-only snapshot connections for
// reuse across short read transactions. Opening a snapshot session is
// cheap on the device (one sequence number) but expensive on the host:
// a fresh pager cache plus a catalog re-read, which dominates
// short-read latency. The pool parks finished reader connections —
// pager cache, catalog and all — keyed on the committed generation
// they observe: a (commit sequence, power-cut epoch) pair. A checkout
// at the same generation hands back a connection whose cache is still
// hot; the moment the generation advances every pooled connection is
// stale by construction and is closed, so a pooled read can never
// observe anything but the current committed state.
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

	seq   uint64
	epoch uint64
}

// NewConn wraps a freshly cold-opened reader for later Return. The
// generation is taken from the snapshot itself.
func NewConn(db *sqlite.DB, snap *simfs.Snapshot) *Conn {
	return &Conn{DB: db, Snap: snap, seq: snap.Seq(), epoch: snap.Epoch()}
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
	Hits          int64 // checkouts served from a warm connection
	Misses        int64 // checkouts the caller had to cold-open
	Evictions     int64 // connections dropped for capacity
	Invalidations int64 // connections dropped because the generation moved
	Idle          int   // warm connections currently pooled
}

// HitRatio reports hits/(hits+misses), 0 when idle.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Pool is a warm reader-connection pool. All methods are safe for
// concurrent use.
type Pool struct {
	mu     sync.Mutex
	limit  int    // idle connections kept warm at most
	seq    uint64 // generation of every pooled connection
	epoch  uint64
	free   []*Conn // LIFO: the top entry has the warmest cache
	closed bool

	hits          atomic.Int64
	misses        atomic.Int64
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

// Checkout returns a warm connection valid for the given generation,
// or nil when the caller must cold-open (pool empty, generation moved,
// or pool closed).
func (p *Pool) Checkout(seq, epoch uint64) *Conn {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	if seq != p.seq || epoch != p.epoch {
		// The committed generation moved (or the device power-cycled):
		// every pooled connection reads a state that no new session may
		// observe. Drop them all and adopt the new generation.
		n := len(p.free)
		p.drainLocked()
		p.seq, p.epoch = seq, epoch
		p.mu.Unlock()
		p.invalidations.Add(int64(n))
		p.misses.Add(1)
		return nil
	}
	if len(p.free) == 0 {
		p.mu.Unlock()
		p.misses.Add(1)
		return nil
	}
	c := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.mu.Unlock()
	p.hits.Add(1)
	return c
}

// Return parks a connection for reuse. Stale connections (generation
// behind the pool's) are closed instead; a connection NEWER than the
// pool's generation flushes the pool and adopts its generation. The
// coldest pooled connection is evicted when the pool is full. Reports
// whether the connection was pooled.
func (p *Pool) Return(c *Conn) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.close()
		return false
	}
	if c.epoch != p.epoch || c.seq < p.seq {
		p.mu.Unlock()
		c.close()
		p.invalidations.Add(1)
		return false
	}
	if c.seq > p.seq {
		// This connection observed a newer commit than the pool's
		// generation (cold-opened after a commit, before any checkout
		// noticed): everything pooled is stale.
		n := len(p.free)
		p.drainLocked()
		p.seq = c.seq
		p.invalidations.Add(int64(n))
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
