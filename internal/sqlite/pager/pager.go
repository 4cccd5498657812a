// Package pager implements the page cache and transaction machinery of
// the simulated SQLite engine: a fixed-size buffer pool managed with
// the steal and force policies the paper describes (§2.1), and the
// three journal modes whose I/O behaviour the paper benchmarks:
//
//   - Rollback: the original content of each updated page is copied to
//     a per-transaction journal file before the database is changed;
//     commit force-writes the database and deletes the journal. Three
//     fsync calls per transaction (journal data, journal header,
//     database), plus journal file creation/deletion metadata churn.
//   - WAL: new page versions are appended to a shared log file with one
//     fsync per commit; a checkpoint copies committed pages back into
//     the database every CheckpointPages log pages.
//   - Off: journaling is disabled and atomicity is delegated to an
//     X-FTL device through the file system (write(t,p) on write-back,
//     commit(t) on fsync, abort(t) via ioctl).
package pager

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/simfs"
	"repro/internal/trace"
)

// Pgno is a 1-based database page number, page 1 being the header.
type Pgno uint32

// JournalMode selects the atomic-commit strategy.
type JournalMode int

// Journal modes.
const (
	Rollback JournalMode = iota
	WAL
	Off
)

func (m JournalMode) String() string {
	switch m {
	case Rollback:
		return "rollback"
	case WAL:
		return "wal"
	case Off:
		return "off"
	default:
		return fmt.Sprintf("JournalMode(%d)", int(m))
	}
}

// Errors returned by the pager.
var (
	ErrNoTx     = errors.New("pager: no transaction is active")
	ErrInTx     = errors.New("pager: a transaction is already active")
	ErrBadPgno  = errors.New("pager: page number out of range")
	ErrPinned   = errors.New("pager: all cache pages are pinned")
	ErrCorrupt  = errors.New("pager: file is corrupt")
	ErrReadOnly = errors.New("pager: read-only snapshot session")
	// ErrAborted settles a transaction whose coordinator decided abort.
	ErrAborted = errors.New("pager: transaction aborted by its coordinator")
)

// Config tunes the pager.
type Config struct {
	// Mode is the atomic-commit strategy: the paper's RBJ, WAL and
	// X-FTL (journaling off) configurations.
	Mode JournalMode
	// CacheSize is the buffer-pool capacity in pages (default
	// DefaultCacheSize).
	CacheSize int
	// CheckpointPages triggers a WAL checkpoint when the log reaches
	// this many pages (default 1000, as in the paper §6.3.1).
	CheckpointPages int64
}

// DefaultCacheSize is the cache capacity of a Config that sets none:
// 2000 pages, SQLite's historical default.
const DefaultCacheSize = 2000

const (
	headerMagic  = 0x58464442 // "XFDB"
	walMagic     = 0x57414C46 // "WALF"
	jnlMagic     = 0x4A4E4C46 // "JNLF"
	maxFreelist  = 1500       // inline freelist capacity in page 1
	headerFixed  = 32         // bytes of page-1 header before the freelist
	frameHdrSize = 8          // per-entry bytes in a WAL commit record
	// walFinalFlag marks the last page of a commit-record chain; only
	// its presence commits the chain's transaction.
	walFinalFlag = 0x80000000
)

// Page is one frame of a buffer pool: it holds one page at a time, in a
// writer's cache or in a Table. Callers must Release every page they Get,
// and must call Write before mutating Data.
type Page struct {
	pgno       Pgno
	data       []byte
	dirty      bool
	pins       int
	prev, next *Page // neighbours in Pager.frames or Table.lru; next also links a free list
	frames     *Page // Pager.frames, where Release moves a writer's frame

	// A Table's frame: table is set while the table owns it, and the frame
	// holds the committed versions of its page over [from, to); older
	// links the page's other resident versions.
	table    *Table
	from, to uint64
	older    *Page
	resident bool
}

// Pgno returns the page's number.
func (pg *Page) Pgno() Pgno { return pg.pgno }

// Data returns the page payload. Mutating it without Write first is a
// bug that the rollback path will not protect against.
func (pg *Page) Data() []byte { return pg.data }

// allocState is the allocator state page 1 persists, as a transaction
// found it.
type allocState struct {
	nPages   Pgno
	freelist []Pgno
	schema   uint32
}

// Pager manages one database file. It is not safe for concurrent use —
// SQLite serializes writers at database granularity (§6.2), and so do
// the workloads in this repository.
type Pager struct {
	fs   *simfs.FS
	name string
	file *simfs.File // nil for a read-only pager
	cfg  Config

	// snap, when set, serves every stable-storage read from the committed
	// state a file-system snapshot pinned; the pager is then read-only
	// (Write, Allocate and Free fail with ErrReadOnly), file is nil, and
	// its pages are table's frames: it has no cache of its own.
	snap *simfs.Snapshot

	// table, when set, is the database's shared page cache (Table): a
	// read-only pager's only one, and the one a writer trades its clean
	// committed pages with.
	table *Table

	cache map[Pgno]*Page

	// frames is the sentinel of the frame list, in unpin order, coldest at
	// frames.next: a load joins at the hot end, and the Release that drops
	// a frame's last pin moves it there again. The victim is the least
	// recently unpinned frame (SQLite's pcache1 LRU; pinned frames are
	// stepped over). Victims, and the frames of pages a rewind drops, go to
	// free. A frame is made only when a miss finds free empty.
	frames Page
	free   *Page

	// gen moves whenever a page leaves the cache — evicted, dropped by a
	// rewind or handed to the table — and whenever one is freed or
	// allocated. While it stands still, every page loaded since a reading
	// of it is still cached, and no page has changed owner or been added to
	// a B-tree: what a tree's hinted path rests on.
	gen uint64

	// scratch is a page for commit records and checkpoint copies (the file
	// system copies what it is written).
	scratch []byte

	nPages   Pgno   // database size in pages (>= 1 once open)
	freelist []Pgno // reusable page numbers, persisted in page 1
	schema   uint32 // engine-owned root pointer persisted in page 1

	inTx      bool
	journaled map[Pgno][]byte // RBJ: original images of this tx
	jOrder    []Pgno
	jFile     *simfs.File
	jSynced   int           // journal images already synced to storage
	stolen    map[Pgno]bool // RBJ: pages this tx already wrote over in the database file

	// The write set: every page the pending group wrote, recorded when
	// Write first dirties it — in Off mode the deferred members' pages and
	// after them, from written[txFirst], the open transaction's; in the
	// journal modes the open transaction's alone. The force at commit walks
	// it, rewind drops it from the cache. txBase is the allocator state the
	// open transaction began from.
	written []Pgno
	txFirst int
	txBase  allocState

	// Group commit (Off mode). A transaction ended by DeferCommit is
	// finished here but not yet durable: its pages wait in the file's
	// write-back cache, under the file's one open tid, for the next Fsync,
	// which commits every deferred member and the transaction that issues
	// it as one commit(t). groupBase is the allocator state the group's
	// first member began from. OnGroupSync, when set, is told each time a
	// group settles: how many transactions it ended and how.
	deferred    int
	groupBase   allocState
	OnGroupSync func(members int, err error)

	// WAL state. walIndex and txFrames are made once, by attachWAL, and
	// emptied in place: a checkpoint empties the one, every ending of a
	// transaction the other. pgnos is the page-number scratch of a commit
	// record and a checkpoint.
	walFile   *simfs.File
	walIndex  map[Pgno]int64 // pgno -> wal file page of latest committed version
	txFrames  map[Pgno]int64 // this transaction's own frames
	walHead   int64          // next wal file page to write
	ckptAccum int64          // wal pages since last checkpoint
	pgnos     []Pgno

	// Stats.
	Commits   int64
	Rollbacks int64
	// Checkpoints is atomic so a metrics scrape can sample it mid-run.
	Checkpoints atomic.Int64
	// JournalPlaybacks counts hot rollback journals played back at Open.
	JournalPlaybacks int64

	txStart time.Duration // virtual time of Begin, for the KTxn span
}

// tracer returns the stack's tracer (nil-safe: a nil tracer no-ops).
func (p *Pager) tracer() *trace.Tracer { return p.fs.Tracer() }

// sess reports the session id this pager's I/O is attributed to: the
// file system's current context for a writer, the snapshot's for a
// read-only pager.
func (p *Pager) sess() uint64 {
	if p.snap != nil {
		return p.snap.Session()
	}
	return p.fs.IOSession()
}

// newPager fills in the configuration defaults and the empty cache.
func newPager(fsys *simfs.FS, name string, cfg Config) *Pager {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.CheckpointPages <= 0 {
		cfg.CheckpointPages = 1000
	}
	p := &Pager{
		fs:    fsys,
		name:  name,
		cfg:   cfg,
		cache: make(map[Pgno]*Page),
	}
	p.frames.prev, p.frames.next = &p.frames, &p.frames
	return p
}

// Open creates or opens a database file and runs crash recovery for the
// configured journal mode (hot rollback journal playback, or WAL scan
// and checkpoint).
func Open(fsys *simfs.FS, name string, cfg Config) (*Pager, error) {
	p := newPager(fsys, name, cfg)
	var err error
	if fsys.Exists(name) {
		p.file, err = fsys.Open(name)
	} else {
		p.file, err = fsys.Create(name, simfs.RoleData)
	}
	if err != nil {
		return nil, err
	}
	if err := p.loadHeader(); err != nil {
		return nil, err
	}
	// Mode-specific attach + recovery.
	switch cfg.Mode {
	case Rollback:
		if err := p.recoverRollback(); err != nil {
			return nil, err
		}
	case WAL:
		if err := p.attachWAL(); err != nil {
			return nil, err
		}
	case Off:
		// The device already recovered atomically; nothing to do.
	}
	return p, nil
}

// OpenReader opens a read-only pager whose every stable-storage read is
// served from snap: the database exactly as of the snapshot's commit
// point — every page resolves through the X-FTL version set pinned at
// its open — unaffected by any concurrent writer. Its pages are t's
// frames, shared with the database's other connections. No recovery
// runs — a snapshot is committed state by construction — and nothing is
// ever journaled. The snapshot's lifetime is owned by the caller; Close
// does not release it.
func OpenReader(fsys *simfs.FS, name string, snap *simfs.Snapshot, t *Table) (*Pager, error) {
	p := newPager(fsys, name, Config{Mode: Off})
	p.snap, p.table = snap, t
	if err := p.loadHeader(); err != nil {
		return nil, err
	}
	return p, nil
}

// Reseat moves a read-only pager on to snap, a later snapshot of the same
// database in the same power-cut epoch. Nothing is dropped: its pages are
// looked up at the new sequence. If page 1 may have changed in between,
// the header is read again, and header reports it.
func (p *Pager) Reseat(snap *simfs.Snapshot) (header bool, err error) {
	since := p.snap.Seq()
	p.snap = snap
	if !p.table.changed(1, since, snap) {
		return false, nil
	}
	pg, err := p.Get(1)
	if err == nil {
		err = p.decodeHeader(pg.data)
		pg.Release()
	}
	return true, err
}

// Share makes t the table a writer trades its clean committed pages with:
// its evictions hand them over, its misses look there before the file,
// and its commits publish what they wrote. Journal mode Off only.
func (p *Pager) Share(t *Table) { p.table = t }

// Name returns the database file name.
func (p *Pager) Name() string { return p.name }

// Mode returns the journal mode.
func (p *Pager) Mode() JournalMode { return p.cfg.Mode }

// NPages reports the database size in pages.
func (p *Pager) NPages() Pgno { return p.nPages }

// PageSize reports the page size in bytes.
func (p *Pager) PageSize() int { return p.fs.PageSize() }

// SchemaRoot returns the engine-owned root pointer from page 1.
func (p *Pager) SchemaRoot() uint32 { return p.schema }

// SetSchemaRoot stores the engine-owned root pointer; it becomes
// durable with the enclosing transaction.
func (p *Pager) SetSchemaRoot(v uint32) error {
	if !p.inTx {
		return ErrNoTx
	}
	p.schema = v
	return p.dirtyHeader()
}

// jnlName returns the rollback journal file name.
func (p *Pager) jnlName() string { return p.name + "-journal" }

// walName returns the write-ahead log file name.
func (p *Pager) walName() string { return p.name + "-wal" }

// loadHeader reads page 1, initializing a fresh database if the file is
// empty.
func (p *Pager) loadHeader() error {
	var fresh bool
	if p.snap != nil {
		fresh = p.snap.Pages(p.name) == 0
	} else {
		fresh = p.file.Pages() == 0
	}
	if fresh {
		p.nPages, p.schema, p.freelist = 1, 0, p.freelist[:0]
		return nil
	}
	buf := make([]byte, p.PageSize())
	if err := p.readDBPage(1, buf); err != nil {
		return err
	}
	return p.decodeHeader(buf)
}

func (p *Pager) decodeHeader(buf []byte) error {
	if binary.BigEndian.Uint32(buf[0:]) != headerMagic {
		return fmt.Errorf("%w: bad header magic", ErrCorrupt)
	}
	p.nPages = Pgno(binary.BigEndian.Uint32(buf[4:]))
	p.schema = binary.BigEndian.Uint32(buf[8:])
	n := int(binary.BigEndian.Uint32(buf[12:]))
	if n > maxFreelist {
		return fmt.Errorf("%w: freelist count %d", ErrCorrupt, n)
	}
	p.freelist = p.freelist[:0]
	for i := 0; i < n; i++ {
		p.freelist = append(p.freelist, Pgno(binary.BigEndian.Uint32(buf[headerFixed+4*i:])))
	}
	return nil
}

func (p *Pager) encodeHeader(buf []byte) {
	clear(buf)
	binary.BigEndian.PutUint32(buf[0:], headerMagic)
	binary.BigEndian.PutUint32(buf[4:], uint32(p.nPages))
	binary.BigEndian.PutUint32(buf[8:], p.schema)
	binary.BigEndian.PutUint32(buf[12:], uint32(len(p.freelist)))
	for i, f := range p.freelist {
		if headerFixed+4*i+4 > len(buf) {
			break
		}
		binary.BigEndian.PutUint32(buf[headerFixed+4*i:], uint32(f))
	}
}

// dirtyHeader marks page 1 dirty with freshly encoded header state.
func (p *Pager) dirtyHeader() error {
	pg, err := p.Get(1)
	if err != nil {
		return err
	}
	defer pg.Release()
	if err := p.Write(pg); err != nil {
		return err
	}
	p.encodeHeader(pg.Data())
	return nil
}

// readDBPage fetches a page image from stable storage: as the snapshot
// pinned it for a read-only pager, else consulting the WAL first in WAL
// mode (the paper's "reading the two files" overhead). Pages past the
// end of the file read as zeros.
func (p *Pager) readDBPage(pgno Pgno, buf []byte) error {
	if p.snap != nil {
		if int64(pgno-1) >= p.snap.Pages(p.name) {
			clear(buf)
			return nil
		}
		return p.snap.ReadPage(p.name, int64(pgno-1), buf)
	}
	if p.cfg.Mode == WAL {
		if idx, ok := p.txFrames[pgno]; ok {
			return p.walFile.ReadPage(idx, buf)
		}
		if idx, ok := p.walIndex[pgno]; ok {
			return p.walFile.ReadPage(idx, buf)
		}
	}
	if int64(pgno-1) >= p.file.Pages() {
		clear(buf)
		return nil
	}
	return p.file.ReadPage(int64(pgno-1), buf)
}

// Get pins a page in the cache, reading it from storage on a miss.
func (p *Pager) Get(pgno Pgno) (*Page, error) {
	if pgno < 1 || pgno > p.nPages {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadPgno, pgno, p.nPages)
	}
	if p.snap != nil {
		return p.table.get(p, pgno)
	}
	if pg, ok := p.cache[pgno]; ok {
		pg.pins++
		return pg, nil
	}
	if err := p.makeRoom(); err != nil {
		return nil, err
	}
	if p.table != nil {
		if pg := p.take(pgno); pg != nil {
			return p.install(pgno, pg), nil
		}
	}
	pg := p.frame()
	if err := p.read(pgno, pg.data); err != nil {
		pg.next, p.free = p.free, pg
		return nil, err
	}
	return p.install(pgno, pg), nil
}

// take looks for a writer's miss on pgno in the table (Table.take): the
// frame of the page's current committed version, handed over, or a copy
// of it while a reader pins it; nil if the table has none.
func (p *Pager) take(pgno Pgno) *Page {
	src, shared := p.table.take(pgno, &p.free)
	if !shared {
		return src
	}
	pg := p.frame()
	copy(pg.data, src.data)
	src.Release()
	return pg
}

// read loads pgno's stable image into buf, traced as one page read.
func (p *Pager) read(pgno Pgno, buf []byte) error {
	tr := p.tracer()
	rdStart := tr.Now()
	if err := p.readDBPage(pgno, buf); err != nil {
		return err
	}
	if tr != nil {
		tr.Record(trace.Event{Layer: trace.LPager, Kind: trace.KPageRead,
			Start: rdStart, Dur: tr.Now() - rdStart,
			Addr: int64(pgno), Sess: p.sess()})
	}
	if pgno == 1 && binary.BigEndian.Uint32(buf[0:]) != headerMagic {
		// Fresh database: no stable header exists yet; synthesize the
		// current in-memory header state.
		p.encodeHeader(buf)
	}
	return nil
}

// Cached pins pgno if it is in the cache, without I/O; nil if it is not.
// A read-only pager caches nothing of its own, so it always gets nil, and
// its B-trees descend for every access instead of taking a hinted path.
func (p *Pager) Cached(pgno Pgno) *Page {
	pg := p.cache[pgno]
	if pg != nil {
		pg.pins++
	}
	return pg
}

// Peek returns pgno's page if it is in the cache, without I/O and without
// pinning it, so its place in the frame list does not change; nil if it is
// not cached. The page is good to read until the next Get or Allocate.
func (p *Pager) Peek(pgno Pgno) *Page { return p.cache[pgno] }

// Gen reports the cache generation (see Pager.gen).
func (p *Pager) Gen() uint64 { return p.gen }

// frame returns the frame a miss loads into: a free one (the victim
// makeRoom just evicted first), else a new one. Content is unspecified.
func (p *Pager) frame() *Page {
	if pg := p.free; pg != nil {
		p.free = pg.next
		return pg
	}
	return &Page{data: make([]byte, p.PageSize())}
}

// install caches pgno, freshly loaded into pg, pinned once more, at the
// hot end of the frame list (a pinned frame's place is never looked at).
func (p *Pager) install(pgno Pgno, pg *Page) *Page {
	pg.prev, pg.next = p.frames.prev, &p.frames
	pg.prev.next, p.frames.prev = pg, pg
	pg.pgno, pg.dirty, pg.frames = pgno, false, &p.frames
	pg.pins++
	p.cache[pgno] = pg
	return pg
}

// uncache takes a page out of the writer's cache, its frame with it.
func (p *Pager) uncache(pg *Page) {
	delete(p.cache, pg.pgno)
	p.gen++
	unlinkLRU(pg)
}

// Release unpins a page obtained from Get, Cached or Allocate. The last
// unpin makes the frame the most recently used: it moves to the hot end.
func (pg *Page) Release() {
	if pg.table != nil {
		pg.table.release(pg)
		return
	}
	if pg.pins > 0 {
		if pg.pins--; pg.pins == 0 && pg.prev != nil {
			hot := pg.frames
			pg.prev.next, pg.next.prev = pg.next, pg.prev
			pg.prev, pg.next = hot.prev, hot
			hot.prev.next, hot.prev = pg, pg
		}
	}
}

// makeRoom evicts unpinned pages, least recently unpinned first, until
// the cache is under its limit, so a miss can load one more page. Dirty
// evictions are the steal policy: uncommitted content reaches storage
// under whatever protection the journal mode provides. An eviction costs
// O(1) amortised plus the pinned pages it steps over.
func (p *Pager) makeRoom() error {
	for len(p.cache) >= p.cfg.CacheSize {
		victim := p.frames.next
		for victim != &p.frames && victim.pins > 0 {
			victim = victim.next
		}
		if victim == &p.frames {
			return ErrPinned
		}
		if victim.dirty {
			if err := p.stealOut(victim); err != nil {
				return err
			}
		}
		p.uncache(victim)
		if p.table != nil {
			victim = p.table.give(victim)
		}
		if victim != nil {
			victim.next, p.free = p.free, victim
		}
	}
	return nil
}

// stealOut writes one uncommitted dirty page to storage (steal policy).
func (p *Pager) stealOut(pg *Page) error {
	switch p.cfg.Mode {
	case Rollback:
		// The journal must be durable before an uncommitted page may
		// overwrite the database (undo rule).
		if err := p.syncJournalImages(); err != nil {
			return err
		}
		if err := p.file.WritePage(int64(pg.pgno-1), pg.data); err != nil {
			return err
		}
		p.stolen[pg.pgno] = true
	case WAL:
		if err := p.appendFrame(pg.pgno, pg.data); err != nil {
			return err
		}
	case Off:
		// A stolen page must stay revocable on its own: deferred members
		// sharing the file's tid are committed before it joins one.
		if err := p.SyncDeferred(); err != nil {
			return err
		}
		if p.table != nil {
			p.table.pend(pg.pgno)
		}
		// The file system forwards this as write(t,p); the device keeps
		// it invisible and revocable.
		if err := p.file.WritePage(int64(pg.pgno-1), pg.data); err != nil {
			return err
		}
	}
	pg.dirty = false
	return nil
}

// Begin starts a write transaction.
func (p *Pager) Begin() error {
	if p.inTx {
		return ErrInTx
	}
	p.inTx = true
	p.txStart = p.tracer().Now()
	p.txFirst = len(p.written)
	p.txBase = allocState{p.nPages, append([]Pgno(nil), p.freelist...), p.schema}
	switch p.cfg.Mode {
	case Rollback:
		p.journaled = make(map[Pgno][]byte)
		p.jOrder = p.jOrder[:0]
		p.jSynced = 0
		p.stolen = make(map[Pgno]bool)
	}
	return nil
}

// InTx reports whether a transaction is active.
func (p *Pager) InTx() bool { return p.inTx }

// Write declares intent to modify a pinned page. In rollback mode the
// original image is captured for the journal on first touch; in every
// mode the page joins the write set. SQLite's rollback mode also
// touches the header page each transaction (change counter), which is
// reproduced here.
func (p *Pager) Write(pg *Page) error {
	if !p.inTx {
		return ErrNoTx
	}
	if p.snap != nil {
		return ErrReadOnly
	}
	if p.cfg.Mode == Rollback {
		p.journal(pg)
		if pg.pgno != 1 {
			if hdr, err := p.Get(1); err == nil {
				p.journal(hdr)
				p.markDirty(hdr)
				hdr.Release()
			}
		}
	}
	if tr := p.tracer(); tr != nil && !pg.dirty {
		// First dirty touch this transaction: one point event per page.
		tr.Record(trace.Event{Layer: trace.LPager, Kind: trace.KPageWrite,
			Start: tr.Now(), Addr: int64(pg.pgno), Sess: p.sess()})
	}
	p.markDirty(pg)
	return nil
}

// journal captures a page's original image for the rollback journal, the
// first time the transaction touches it.
func (p *Pager) journal(pg *Page) {
	if _, ok := p.journaled[pg.pgno]; !ok {
		p.journaled[pg.pgno] = slices.Clone(pg.data)
		p.jOrder = append(p.jOrder, pg.pgno)
	}
}

// markDirty is the one place a page becomes dirty, so the one place the
// write set grows: once per clean-to-dirty turn (again after a steal, and
// per member of a group — walks of the set tolerate the repeats).
func (p *Pager) markDirty(pg *Page) {
	if !pg.dirty {
		pg.dirty = true
		p.written = append(p.written, pg.pgno)
	}
}

// mutated reports whether the open transaction has written anything.
func (p *Pager) mutated() bool { return len(p.written) > p.txFirst }

// Allocate produces a fresh writable page, reusing the freelist first.
func (p *Pager) Allocate() (*Page, error) {
	if !p.inTx {
		return nil, ErrNoTx
	}
	if p.snap != nil {
		return nil, ErrReadOnly
	}
	p.gen++
	var pgno Pgno
	if n := len(p.freelist); n > 0 {
		pgno = p.freelist[n-1]
		p.freelist = p.freelist[:n-1]
	} else {
		p.nPages++
		pgno = p.nPages
	}
	if err := p.dirtyHeader(); err != nil {
		return nil, err
	}
	if err := p.makeRoom(); err != nil {
		return nil, err
	}
	// A fresh page never needs a disk read or an undo image.
	pg, ok := p.cache[pgno]
	if ok {
		pg.pins++
	} else {
		pg = p.install(pgno, p.frame())
	}
	clear(pg.data)
	if err := p.Write(pg); err != nil {
		pg.Release()
		return nil, err
	}
	return pg, nil
}

// Free returns a page to the freelist for reuse by later allocations.
func (p *Pager) Free(pgno Pgno) error {
	if !p.inTx {
		return ErrNoTx
	}
	if pgno <= 1 || pgno > p.nPages {
		return fmt.Errorf("%w: free %d", ErrBadPgno, pgno)
	}
	if p.snap != nil {
		return ErrReadOnly
	}
	p.gen++
	if len(p.freelist) < maxFreelist {
		p.freelist = append(p.freelist, pgno)
	}
	return p.dirtyHeader()
}

// ensureJournal lazily creates the per-transaction rollback journal
// file and writes its header page (original database size, magic).
func (p *Pager) ensureJournal() error {
	if p.jFile != nil {
		return nil
	}
	name := p.jnlName()
	if p.fs.Exists(name) {
		if err := p.fs.Remove(name); err != nil {
			return err
		}
	}
	f, err := p.fs.Create(name, simfs.RoleJournal)
	if err != nil {
		return err
	}
	p.jFile = f
	hdr := make([]byte, p.PageSize())
	jnlEncodeHeader(hdr, p.txBase.nPages, nil) // no images until the first sync
	return f.WritePage(0, hdr)
}

// syncJournalImages makes every captured original image durable: the
// undo data is written and fsynced, then the header (with the final
// image count) is written and fsynced separately — the paper's two
// journal fsyncs per transaction (§6.3.1). Directory pages the new images
// need go with the first fsync.
func (p *Pager) syncJournalImages() error {
	if len(p.jOrder) == 0 {
		return nil
	}
	if err := p.ensureJournal(); err != nil {
		return err
	}
	ps := p.PageSize()
	from := p.jSynced
	for ; p.jSynced < len(p.jOrder); p.jSynced++ {
		pgno := p.jOrder[p.jSynced]
		img := p.journaled[pgno]
		page := make([]byte, ps)
		copy(page, img)
		// Journal image pages carry their pgno in the first bytes of a
		// trailer-free simulation: recovery reads pgnos from the header
		// page instead, so the payload is stored verbatim.
		if err := p.jFile.WritePage(jnlImagePage(p.jSynced, ps), page); err != nil {
			return err
		}
	}
	hdr := make([]byte, ps)
	// The directory pages naming the new images: from the one naming image
	// from, which may name older ones too, to the last.
	for seg := max(jnlDirPages(from+1, ps)-1, 0); from < len(p.jOrder) && seg < jnlDirPages(len(p.jOrder), ps); seg++ {
		jnlEncodeDir(hdr, seg, p.jOrder)
		if err := p.jFile.WritePage(jnlDirPage(seg, ps), hdr); err != nil {
			return err
		}
	}
	if err := p.jFile.Fsync(); err != nil {
		return err
	}
	jnlEncodeHeader(hdr, p.txBase.nPages, p.jOrder)
	if err := p.jFile.WritePage(0, hdr); err != nil {
		return err
	}
	return p.jFile.Fsync()
}

// A rollback journal is a header page followed by the original images of
// the pages the transaction wrote, in the order it first wrote them. The
// header holds the magic, the database size the transaction began from,
// the image count and the first jnlHdrEntries entries of the directory
// that names each image's page. A longer directory goes on in directory
// pages, each placed before the run of jnlDirEntries images it names, so
// no image or directory page moves as the journal grows between syncs.
func jnlHdrEntries(ps int) int { return (ps - 12) / 4 }
func jnlDirEntries(ps int) int { return ps / 4 }

// jnlDirPages is how many directory pages a journal of n images has.
func jnlDirPages(n, ps int) int {
	return max(0, n-jnlHdrEntries(ps)+jnlDirEntries(ps)-1) / jnlDirEntries(ps)
}

// jnlDirPage is the journal page of directory segment seg.
func jnlDirPage(seg, ps int) int64 {
	return int64(1 + jnlHdrEntries(ps) + seg*(1+jnlDirEntries(ps)))
}

// jnlImagePage is the journal page of image i.
func jnlImagePage(i, ps int) int64 {
	h := jnlHdrEntries(ps)
	if i < h {
		return int64(1 + i)
	}
	d := jnlDirEntries(ps)
	return jnlDirPage((i-h)/d, ps) + 1 + int64((i-h)%d)
}

// jnlEncodeHeader fills buf with a journal header for a transaction that
// began at origSize pages and has journaled pgnos.
func jnlEncodeHeader(buf []byte, origSize Pgno, pgnos []Pgno) {
	clear(buf)
	binary.BigEndian.PutUint32(buf[0:], jnlMagic)
	binary.BigEndian.PutUint32(buf[4:], uint32(origSize))
	binary.BigEndian.PutUint32(buf[8:], uint32(len(pgnos)))
	for i, pgno := range pgnos[:min(len(pgnos), jnlHdrEntries(len(buf)))] {
		binary.BigEndian.PutUint32(buf[12+4*i:], uint32(pgno))
	}
}

// jnlEncodeDir fills buf with directory page seg of pgnos.
func jnlEncodeDir(buf []byte, seg int, pgnos []Pgno) {
	clear(buf)
	first := jnlHdrEntries(len(buf)) + seg*jnlDirEntries(len(buf))
	for i, pgno := range pgnos[first:min(len(pgnos), first+jnlDirEntries(len(buf)))] {
		binary.BigEndian.PutUint32(buf[4*i:], uint32(pgno))
	}
}

// jnlDecode decodes the header page buf of a journal of pages pages, and
// the directory pages it needs, which read fetches into buf. It refuses a
// header without the magic, an original size of 0, an image count the
// journal has no room for, and page number 0.
func jnlDecode(buf []byte, pages int64, read func(idx int64, buf []byte) error) (origSize Pgno, pgnos []Pgno, err error) {
	ps := len(buf)
	origSize = Pgno(binary.BigEndian.Uint32(buf[4:]))
	count := int64(binary.BigEndian.Uint32(buf[8:]))
	switch {
	case binary.BigEndian.Uint32(buf[0:]) != jnlMagic:
		return 0, nil, fmt.Errorf("%w: journal magic", ErrCorrupt)
	case origSize == 0:
		return 0, nil, fmt.Errorf("%w: journal of an empty database", ErrCorrupt)
	case count > 0 && jnlImagePage(int(count-1), ps) >= pages:
		return 0, nil, fmt.Errorf("%w: journal names %d images in %d pages", ErrCorrupt, count, pages)
	}
	pgnos = make([]Pgno, count)
	for i := range pgnos {
		off := 12 + 4*i
		if i >= jnlHdrEntries(ps) {
			j := i - jnlHdrEntries(ps)
			if j%jnlDirEntries(ps) == 0 {
				if err := read(jnlDirPage(j/jnlDirEntries(ps), ps), buf); err != nil {
					return 0, nil, err
				}
			}
			off = 4 * (j % jnlDirEntries(ps))
		}
		if pgnos[i] = Pgno(binary.BigEndian.Uint32(buf[off:])); pgnos[i] == 0 {
			return 0, nil, fmt.Errorf("%w: journal names page 0", ErrCorrupt)
		}
	}
	return origSize, pgnos, nil
}

// attachWAL opens (or creates) the log file and recovers committed
// frames after a crash by scanning for commit records.
func (p *Pager) attachWAL() error {
	name := p.walName()
	var err error
	if p.fs.Exists(name) {
		p.walFile, err = p.fs.Open(name)
	} else {
		p.walFile, err = p.fs.Create(name, simfs.RoleJournal)
	}
	if err != nil {
		return err
	}
	p.walIndex, p.txFrames = make(map[Pgno]int64), make(map[Pgno]int64)
	p.walHead = 0
	// Scan: commit records are identified by magic and enumerate the
	// (pgno, framePage) pairs of their transaction. Multi-page record
	// chains apply only when the flagged final page is present, so a
	// crash mid-chain leaves the transaction uncommitted.
	buf := make([]byte, p.PageSize())
	n := p.walFile.Pages()
	pending := make(map[Pgno]int64)
	for i := int64(0); i < n; i++ {
		if err := p.walFile.ReadPage(i, buf); err != nil {
			return err
		}
		if binary.BigEndian.Uint32(buf[0:]) != walMagic {
			continue
		}
		raw := binary.BigEndian.Uint32(buf[4:])
		final := raw&walFinalFlag != 0
		cnt := int(raw &^ walFinalFlag)
		for e := 0; e < cnt; e++ {
			off := 8 + e*frameHdrSize
			if off+frameHdrSize > len(buf) {
				break
			}
			pgno := Pgno(binary.BigEndian.Uint32(buf[off:]))
			frame := int64(binary.BigEndian.Uint32(buf[off+4:]))
			pending[pgno] = frame
		}
		if final {
			for pgno, frame := range pending {
				p.walIndex[pgno] = frame
			}
			clear(pending)
			p.walHead = i + 1
		}
	}
	if len(p.walIndex) > 0 {
		// Database size may have grown inside the WAL: adopt the max.
		for pgno := range p.walIndex {
			if pgno > p.nPages {
				p.nPages = pgno
			}
		}
		// Page 1 in the WAL carries newer header state.
		if idx, ok := p.walIndex[1]; ok {
			if err := p.walFile.ReadPage(idx, buf); err != nil {
				return err
			}
			if err := p.decodeHeader(buf); err != nil {
				return err
			}
		}
		// The paper measures WAL restart time as the cost of copying
		// the committed pages back into the database (§6.4).
		if err := p.checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// appendFrame writes one page version into the WAL (uncommitted until a
// commit record covers it).
func (p *Pager) appendFrame(pgno Pgno, data []byte) error {
	if err := p.walFile.WritePage(p.walHead, data); err != nil {
		return err
	}
	p.txFrames[pgno] = p.walHead
	p.walHead++
	return nil
}

// Commit makes the transaction durable per the journal mode and applies
// the force policy: every dirty page is written to stable storage.
func (p *Pager) Commit() error {
	if !p.inTx {
		return ErrNoTx
	}
	var err error
	switch {
	case !p.mutated():
		// Read-only transaction: no journal, no force, no fsync of its own
		// — but deferred members waiting on this commit get theirs.
		err = p.SyncDeferred()
	case p.cfg.Mode == Off:
		return p.commitOff()
	case p.cfg.Mode == Rollback:
		err = p.commitRollback()
	case p.cfg.Mode == WAL:
		err = p.commitWAL()
	}
	if err != nil {
		return err
	}
	p.written = p.written[:0]
	p.endTx(1)
	return nil
}

// endTx closes the open transaction — every ending passes through here
// exactly once, to be counted and to record the span that started at
// Begin. aux is 1 for a commit, 0 for a rollback.
func (p *Pager) endTx(aux int64) {
	p.inTx = false
	p.journaled = nil
	p.stolen = nil
	clear(p.txFrames)
	if aux == 1 {
		p.Commits++
	} else {
		p.Rollbacks++
	}
	if tr := p.tracer(); tr != nil {
		tr.Record(trace.Event{Layer: trace.LSQL, Kind: trace.KTxn,
			Start: p.txStart, Dur: tr.Now() - p.txStart,
			Aux: aux, Sess: p.sess()})
	}
}

func (p *Pager) commitRollback() error {
	// 1. Undo images durable (two fsyncs: data then header).
	if err := p.syncJournalImages(); err != nil {
		return err
	}
	// 2. Force: all dirty pages into the database file, then fsync.
	if err := p.force(); err != nil {
		return err
	}
	if err := p.file.Fsync(); err != nil {
		return err
	}
	// 3. Commit point: delete the journal.
	if p.jFile != nil {
		_ = p.jFile.Close()
		p.jFile = nil
		if err := p.fs.Remove(p.jnlName()); err != nil {
			return err
		}
	}
	return nil
}

func (p *Pager) commitWAL() error {
	// Force: every dirty page becomes a WAL frame, then one commit
	// record enumerating the transaction's frames, then one fsync.
	if err := p.force(); err != nil {
		return err
	}
	// The commit record enumerates every frame of the transaction. A
	// large transaction spans several record pages, chained so that
	// only the final page (flagged) commits the whole group — recovery
	// discards an unterminated chain, keeping commit atomic.
	p.pgnos = sortedPgnos(p.pgnos, p.txFrames)
	perPage := (p.PageSize() - 8) / frameHdrSize
	for start := 0; start < len(p.pgnos); start += perPage {
		end := min(start+perPage, len(p.pgnos))
		rec := p.scratchPage()
		clear(rec)
		binary.BigEndian.PutUint32(rec[0:], walMagic)
		count := uint32(end - start)
		if end == len(p.pgnos) {
			count |= walFinalFlag
		}
		binary.BigEndian.PutUint32(rec[4:], count)
		for i, pgno := range p.pgnos[start:end] {
			off := 8 + i*frameHdrSize
			binary.BigEndian.PutUint32(rec[off:], uint32(pgno))
			binary.BigEndian.PutUint32(rec[off+4:], uint32(p.txFrames[pgno]))
		}
		if err := p.walFile.WritePage(p.walHead, rec); err != nil {
			return err
		}
		p.walHead++
	}
	if err := p.walFile.Fsync(); err != nil {
		return err
	}
	for pgno, frame := range p.txFrames {
		p.walIndex[pgno] = frame
	}
	p.ckptAccum += int64(len(p.txFrames)) + 1
	clear(p.txFrames)
	if p.ckptAccum >= p.cfg.CheckpointPages {
		return p.checkpoint()
	}
	return nil
}

// checkpoint copies the latest committed version of every page in the
// WAL into the database file, fsyncs it, and resets the log.
func (p *Pager) checkpoint() error {
	if len(p.walIndex) == 0 {
		p.ckptAccum = 0
		return nil
	}
	// Copy back in log order (ascending frame), a fixed order like every
	// other page loop; a frame belongs to exactly one page.
	p.pgnos = sortedPgnos(p.pgnos, p.walIndex)
	slices.SortFunc(p.pgnos, func(a, b Pgno) int { return cmp.Compare(p.walIndex[a], p.walIndex[b]) })
	buf := p.scratchPage()
	for _, pgno := range p.pgnos {
		if err := p.walFile.ReadPage(p.walIndex[pgno], buf); err != nil {
			return err
		}
		if err := p.file.WritePage(int64(pgno-1), buf); err != nil {
			return err
		}
	}
	if err := p.file.Fsync(); err != nil {
		return err
	}
	if err := p.walFile.Truncate(0); err != nil {
		return err
	}
	if err := p.walFile.Fsync(); err != nil {
		return err
	}
	clear(p.walIndex)
	p.walHead = 0
	p.ckptAccum = 0
	p.Checkpoints.Add(1)
	return nil
}

// Checkpoint forces a WAL checkpoint outside the automatic threshold.
// Call from the writer's goroutine.
func (p *Pager) Checkpoint() error {
	if p.cfg.Mode != WAL {
		return nil
	}
	return p.checkpoint()
}

// WALStats samples the checkpoint count; safe mid-run from any
// goroutine. The second result is always 0: no reader defers a
// checkpoint any more.
func (p *Pager) WALStats() (checkpoints, deferred int64) {
	return p.Checkpoints.Load(), 0
}

func (p *Pager) commitOff() error {
	if p.deferred > 0 && p.groupFull() {
		if err := p.SyncDeferred(); err != nil {
			return err
		}
	}
	// Force all dirty pages through the file system (write(t,p)) and
	// commit with the single fsync (commit(t)) — which carries every
	// deferred member's pages with it.
	if err := p.stage(); err != nil {
		return err
	}
	return p.settle(1, p.file.Fsync())
}

// maxGroupPages bounds the pages one commit(t) carries on behalf of a
// group: far under any device's X-L2P capacity (500 rows by default, 128
// on the smallest test device), so joining a group never costs a
// transaction that fits on its own an ErrTableFull.
const maxGroupPages = 64

// groupFull reports that the open transaction's pages do not fit the
// pending group's page budget.
func (p *Pager) groupFull() bool { return len(p.written) > maxGroupPages }

// Every Off-mode write transaction ends in the same two steps (DESIGN.md
// §8). stage: its dirty pages go to the file's write-back cache, beside
// the deferred members' — a page two members wrote coalesces into one
// write. settle: whoever issued the commit(t) that carried them says how
// it ended, and the pending group — the deferred members plus, with self
// 1, the open transaction — finishes or rewinds as one. A failed stage
// settles at once: nothing of the group is durable.
func (p *Pager) stage() error {
	if p.table != nil {
		p.table.pend(p.written[p.txFirst:]...)
	}
	if err := p.force(); err != nil {
		return p.settle(1, err)
	}
	return nil
}

func (p *Pager) settle(self int, err error) error {
	members := p.deferred + self
	switch {
	case err != nil:
		// The open transaction goes even if it was no member: it read the
		// group's pages.
		p.Commits -= int64(p.deferred)
		p.rewind()
	case self == 1:
		p.publish(p.written)
		p.written = p.written[:0]
		p.endTx(1)
	default:
		// What is left of the write set is the open transaction's.
		p.publish(p.written[:p.txFirst])
		p.written = p.written[:copy(p.written, p.written[p.txFirst:])]
		p.txFirst = 0
	}
	p.deferred = 0
	if p.OnGroupSync != nil {
		p.OnGroupSync(members, err)
	}
	return err
}

// rewind is the one way out for writes that will not commit — a failed
// stage, commit(t) or prepare(t), a coordinator's abort, Rollback. What
// the file still holds of them, cached or on the device under its tid, is
// aborted there; every page of the write set leaves the cache, so the
// next Get re-reads the stable version; the allocator state returns to
// where the pending group began; the open transaction is closed as rolled
// back. The connection is then usable by the next writer. The error is
// the abort's: after a power cut the device discards the tid by itself.
func (p *Pager) rewind() error {
	var err error
	if p.cfg.Mode == Off && p.file != nil && p.file.Pending() {
		err = p.file.Abort()
	}
	if p.table != nil && len(p.written) > 0 {
		p.table.publish(p, p.written, false)
	}
	for _, pgno := range p.written {
		p.dropCached(pgno)
	}
	p.written = p.written[:0]
	base := p.txBase
	if p.deferred > 0 {
		base = p.groupBase
	}
	p.nPages, p.freelist, p.schema = base.nPages, base.freelist, base.schema
	p.endTx(0)
	return err
}

// publish hands the table the pages a commit carried (Table.publish).
func (p *Pager) publish(pgnos []Pgno) {
	if p.table != nil {
		p.table.publish(p, pgnos, true)
	}
}

// Stage is the first half of an ending whose commit(t) is issued
// elsewhere, for several files or in two phases; the caller owes the
// pager one Settle. Deferred members are committed first: their fate
// must not ride a tid that a coordinator may yet abort. Off mode only
// (the caller checks).
func (p *Pager) Stage() error {
	if !p.inTx {
		return ErrNoTx
	}
	if err := p.SyncDeferred(); err != nil {
		return err
	}
	return p.stage()
}

// Settle is the second half: err is how the commit(t) that carried the
// staged pages ended — nil, the failure that kept it from being issued,
// or ErrAborted once the file system has taken a prepared transaction
// back. On nil the transaction is committed; otherwise the connection is
// rewound and err returned (in a journal mode that cannot stage, the
// transaction is left open for Rollback).
func (p *Pager) Settle(err error) error {
	if !p.inTx {
		return ErrNoTx
	}
	if p.cfg.Mode != Off {
		return err
	}
	return p.settle(1, err)
}

// SyncDeferred commits the pending group of deferred transactions, if
// there is one, with one Fsync. The open transaction is not part of it:
// its pages have not left the pager (stealOut syncs before the first one
// does). Called wherever the open transaction cannot join the group.
func (p *Pager) SyncDeferred() error {
	if p.deferred == 0 {
		return nil
	}
	return p.settle(0, p.file.Fsync())
}

// DeferCommit ends the transaction as one member of a group commit: it
// is staged and finished, but durable only once a later Commit or
// SyncDeferred on this pager has fsynced the file; the caller must not
// acknowledge it before OnGroupSync reports that. It reports false when
// nothing was deferred: a read-only transaction, or one too large for the
// group's page budget, was committed the ordinary way (after the pending
// group). Off mode only.
func (p *Pager) DeferCommit() (bool, error) {
	if !p.inTx {
		return false, ErrNoTx
	}
	if p.cfg.Mode != Off {
		return false, fmt.Errorf("pager: group commit requires journal mode off, have %v", p.cfg.Mode)
	}
	if !p.mutated() || p.groupFull() {
		return false, p.Commit()
	}
	if err := p.stage(); err != nil {
		return false, err
	}
	if p.deferred == 0 {
		p.groupBase = p.txBase
	}
	p.deferred++
	p.endTx(1)
	return true, nil
}

// force applies the force policy: every page the open transaction leaves
// dirty in the cache goes to the database file — to the log in WAL mode —
// in ascending page order, so the same transaction stream reaches the
// device in the same order on every run (same seed, same flash).
func (p *Pager) force() error {
	own := p.written[p.txFirst:]
	slices.Sort(own)
	for _, pgno := range own {
		pg := p.cache[pgno]
		if pg == nil || !pg.dirty {
			continue // stolen since, or a repeat
		}
		var err error
		if p.cfg.Mode == WAL {
			err = p.appendFrame(pgno, pg.data)
		} else {
			err = p.file.WritePage(int64(pgno-1), pg.data)
		}
		if err != nil {
			return err
		}
		pg.dirty = false
	}
	return nil
}

// Rollback aborts the transaction: stable storage is made to hold the
// pre-transaction state again, per the journal mode, and the connection
// rewinds to it.
func (p *Pager) Rollback() error {
	if !p.inTx {
		return ErrNoTx
	}
	switch p.cfg.Mode {
	case Rollback:
		// Playback: the original image goes back over every page the
		// transaction already wrote into the database file.
		for _, pgno := range sortedPgnos(nil, p.stolen) {
			if err := p.file.WritePage(int64(pgno-1), p.journaled[pgno]); err != nil {
				return err
			}
		}
		if len(p.stolen) > 0 {
			if err := p.file.Fsync(); err != nil {
				return err
			}
		}
		if p.jFile != nil {
			_ = p.jFile.Close()
			p.jFile = nil
			if err := p.fs.Remove(p.jnlName()); err != nil {
				return err
			}
		}
	case WAL:
		// Own frames are simply forgotten; the log head rewinds.
		if len(p.txFrames) > 0 {
			lo := p.walHead
			for _, f := range p.txFrames {
				if f < lo {
					lo = f
				}
			}
			p.walHead = lo
			_ = p.walFile.Truncate(lo)
		}
	case Off:
		// The file's tid may carry deferred members: they are committed
		// first, so the abort(t) rewind issues through the file (ioctl)
		// takes back this transaction alone.
		if err := p.SyncDeferred(); err != nil {
			return err
		}
	}
	return p.rewind()
}

// dropCached removes a page from the cache, its frame to free, so the
// next Get re-reads the stable version.
func (p *Pager) dropCached(pgno Pgno) {
	if pg, ok := p.cache[pgno]; ok {
		p.uncache(pg)
		pg.next, p.free = p.free, pg
	}
}

// scratchPage returns the pager's one scratch page; content unspecified.
func (p *Pager) scratchPage() []byte {
	if p.scratch == nil {
		p.scratch = make([]byte, p.PageSize())
	}
	return p.scratch
}

// sortedPgnos returns m's keys in ascending order, in dst's room. Every loop that
// issues page I/O from one of the pager's maps walks this instead of the
// map, so the same transaction stream reaches the device in the same
// order on every run (same seed, same flash).
func sortedPgnos[V any](dst []Pgno, m map[Pgno]V) []Pgno {
	dst = dst[:0]
	for pgno := range m {
		dst = append(dst, pgno)
	}
	slices.Sort(dst)
	return dst
}

// recoverRollback plays back a hot journal left by a crash (§6.4).
func (p *Pager) recoverRollback() error {
	name := p.jnlName()
	if !p.fs.Exists(name) {
		return nil
	}
	j, err := p.fs.Open(name)
	if err != nil {
		return err
	}
	hdr := make([]byte, p.PageSize())
	if j.Pages() == 0 {
		_ = j.Close()
		return p.fs.Remove(name)
	}
	if err := j.ReadPage(0, hdr); err != nil {
		return err
	}
	if binary.BigEndian.Uint32(hdr[0:]) != jnlMagic {
		// Garbage journal (crashed before the header was durable):
		// nothing was committed against it, discard.
		_ = j.Close()
		return p.fs.Remove(name)
	}
	origSize, pgnos, err := jnlDecode(hdr, j.Pages(), j.ReadPage)
	if err != nil {
		return err
	}
	img := make([]byte, p.PageSize())
	for i, pgno := range pgnos {
		if pgno > origSize {
			continue // a page the transaction allocated: the truncation below removes it
		}
		if err := j.ReadPage(jnlImagePage(i, p.PageSize()), img); err != nil {
			return err
		}
		if err := p.file.WritePage(int64(pgno-1), img); err != nil {
			return err
		}
	}
	if err := p.file.Truncate(int64(origSize)); err != nil {
		return err
	}
	if err := p.file.Fsync(); err != nil {
		return err
	}
	_ = j.Close()
	if err := p.fs.Remove(name); err != nil {
		return err
	}
	p.JournalPlaybacks++
	return p.loadHeader()
}

// Close flushes nothing (callers must commit first) and releases files.
func (p *Pager) Close() error {
	if p.inTx {
		if err := p.Rollback(); err != nil {
			return err
		}
	}
	if p.jFile != nil {
		_ = p.jFile.Close()
	}
	if p.walFile != nil {
		_ = p.walFile.Close()
	}
	if p.file == nil {
		return nil // read-only session: the source's owner closes it
	}
	return p.file.Close()
}

// File exposes the pager's underlying database file for cross-database
// transaction coordination (the X-FTL multi-file commit of §4.3).
func (p *Pager) File() *simfs.File { return p.file }

// CacheSize reports the cache's capacity in pages.
func (p *Pager) CacheSize() int { return p.cfg.CacheSize }

// CachedPages reports how many pages the cache holds.
func (p *Pager) CachedPages() int { return len(p.cache) }
