// Package simfs simulates the ext4 file system role in the paper's
// stack (§5.2): it maps files onto device pages, runs metadata (and
// optionally data) journaling, and — in X-FTL mode — acts as the
// messenger that carries transactional context from SQLite down to the
// device: page writes become write(t,p), fsync becomes write-back plus
// commit(t), and the new ioctl 'abort' request becomes abort(t).
//
// Three journaling modes reproduce the paper's configurations:
//
//   - Ordered: metadata-only journaling with data written in place
//     before the journal commit, using two write barriers per fsync —
//     the ext4 default the paper benchmarks SQLite on.
//   - Full: data plus metadata journaling; every data page is written
//     twice (journal then home), the mode whose consistency X-FTL
//     matches at lower cost (Figure 8).
//   - OffXFTL: journaling off; atomicity and durability are delegated
//     to the X-FTL device through the extended command set.
package simfs

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ncq"
	"repro/internal/storage"
	"repro/internal/trace"
)

// JournalMode selects how the file system achieves consistency.
type JournalMode int

// Journaling modes.
const (
	// Ordered journals metadata only; data pages are forced out before
	// the journal commit record (ext4 data=ordered).
	Ordered JournalMode = iota
	// Full journals data and metadata (ext4 data=journal).
	Full
	// OffXFTL turns journaling off and relies on the X-FTL device for
	// atomic propagation; requires a transactional device.
	OffXFTL
)

func (m JournalMode) String() string {
	switch m {
	case Ordered:
		return "ordered"
	case Full:
		return "full"
	case OffXFTL:
		return "off(x-ftl)"
	default:
		return fmt.Sprintf("JournalMode(%d)", int(m))
	}
}

// Role classifies a file so host-side write counters can be split the
// way the paper's Table 1 reports them.
type Role int

// File roles.
const (
	RoleData    Role = iota // database files
	RoleJournal             // rollback journals and write-ahead logs
	RoleOther               // everything else (FIO files, miscellany)
)

// Errors returned by the file system.
var (
	ErrExists       = errors.New("simfs: file already exists")
	ErrNotExist     = errors.New("simfs: file does not exist")
	ErrClosed       = errors.New("simfs: file is closed")
	ErrNoSpace      = errors.New("simfs: no space left on device")
	ErrNeedsXFTL    = errors.New("simfs: OffXFTL mode requires a transactional device")
	ErrOutOfBounds  = errors.New("simfs: page index out of file bounds")
	ErrNotMounted   = errors.New("simfs: file system not mounted (power cut); call Remount")
	ErrSnapshotMode = errors.New("simfs: snapshots require OffXFTL mode")
)

// Layout constants (in device pages).
const (
	metaRegionPages    = 64   // synthetic inode/bitmap/directory pages
	journalRegionPages = 1024 // circular fs journal (Ordered/Full)
	// maxDirtyPages bounds the write-back cache per file; exceeding it
	// forces early write-back (the path that exercises the device-side
	// steal support).
	maxDirtyPages = 2048
)

// inode is the in-memory file metadata.
type inode struct {
	name  string
	role  Role
	pages []int64 // file page index -> device LPN
}

// inodeImage is the durable snapshot of an inode taken at a
// journal-commit (or X-FTL commit) point. Once published — in persisted,
// a preparedTx or a Snapshot — an image is immutable, so all three share
// it instead of copying page tables; imageOf is the only place one is
// made. Only OffXFTL mode has prepared transactions and snapshots, so
// only there is an image shared: in the journal modes a commit point
// re-images a file over the page table of the image it replaces.
type inodeImage struct {
	role  Role
	pages []int64
}

// imageOf copies an inode's current state into an image, over the room
// of reuse (nil for a fresh one).
func imageOf(ino *inode, reuse []int64) inodeImage {
	return inodeImage{role: ino.role, pages: append(reuse[:0], ino.pages...)}
}

// preparedTx is the deferred commit point of a prepared (2PC phase-one)
// transaction: the inode images of exactly the files in the prepared
// group, as they would persist on commit. Scoping the capture to the
// group keeps other files' commit points on the same file system
// independent of the prepare window; the caller must still exclude
// concurrent commits of the group's own files between Prepare and
// resolution (the shard coordinator holds a per-shard gate for that).
type preparedTx struct {
	images map[string]inodeImage
}

// FS is a simulated journaling file system over one storage device.
// File handles follow the single-writer discipline (one mutating
// session at a time, as SQLite's locking guarantees); concurrent
// snapshot readers are supported through OpenSnapshot, whose handles
// read device-pinned page versions without touching mutable FS state.
type FS struct {
	dev  *storage.Device
	mode JournalMode
	host *metrics.HostCounters
	// maxDirty is maxDirtyPages; tests lower it to reach write-back.
	maxDirty int

	// mu makes the commit point (device commit + persisted-image update)
	// atomic with respect to OpenSnapshot, which pairs a device snapshot
	// with a copy of the persisted namespace. It is deliberately not held
	// across the write-back I/O that precedes a commit: staged
	// transactional writes do not change committed state, so snapshot
	// opens may interleave with them freely.
	mu sync.Mutex

	// wmu serializes the writer path. A file handle has one mutating
	// session at a time (SQLite's locking), but sessions on different
	// database files share everything below — the allocator, the dirty
	// metadata, the namespace images, the transaction-id counter, the I/O
	// context, the recycled buffers — so every exported method that reads
	// or writes that state holds wmu for its duration. Unexported helpers
	// expect it held. Lock order: wmu, then mu, then the device queue.
	// Snapshot reads do not take it: they never touch a live inode.
	wmu sync.Mutex

	// epoch counts power cuts. Pooled snapshot readers key their
	// generation on (commit sequence, epoch): the sequence alone is not
	// comparable across a cut — recovery can land on a state the
	// sequence does not reflect, and every pre-cut snapshot handle is
	// dead regardless.
	epoch atomic.Uint64

	files map[string]*inode
	// persisted is what a remount after power loss recovers: the
	// namespace and inodes as of the last metadata commit point. It is
	// maintained incrementally: touched names the files whose live inode
	// (or absence) may differ from persisted, and a commit point re-images
	// exactly those — every other file's image is already current. A
	// snapshot holds the map it opened on, so a shared map is never
	// written again: commitPoint, Remount and resolveInDoubt write a copy,
	// under mu, and a commit that only overwrites pages keeps sharing it.
	// (The journal modes open no snapshot, so nothing shares theirs.)
	persisted map[string]inodeImage
	shared    bool // under mu: a snapshot holds persisted
	touched   map[string]struct{}

	// Data-page allocator over [dataStart, capacity).
	dataStart int64
	capacity  int64
	nextAlloc int64
	freeList  []int64

	// Metadata journaling state.
	dirtyMeta   map[int64]struct{} // synthetic metadata LPNs awaiting journal commit
	pendingFree []int64            // pages freed since the last commit point
	journalHead int64              // next slot in the circular fs journal

	// prepared holds, per device transaction id, the namespace image a
	// coordinator commit would promote — the file-system half of a 2PC
	// prepare. Like persisted it models durable state: the inode changes
	// ride the device transaction as write(t,p) metadata pages, so they
	// survive power loss exactly when the device's prepared rows do.
	prepared map[uint64]*preparedTx

	nextTid uint64
	mounted bool

	// Writer-path I/O attribution, under wmu. One mutating session at a
	// time (serialized by mvcc.Manager or the caller) sets it for its
	// turn; readers carry their own context on their Snapshot.
	tracer   *trace.Tracer
	io       ioCtx
	queueing bool // inside a pipelined writer's fsync write-back (see submit)

	// freeBufs holds write-back cache pages whose content has reached the
	// device (or was aborted), for the next WritePage. The device copies
	// what it is handed, so they are the file system's alone.
	freeBufs [][]byte
}

// New formats and mounts a file system in the given journal mode on the
// device. The host counter set may be shared with other layers; nil
// disables counting.
func New(dev *storage.Device, mode JournalMode, host *metrics.HostCounters) (*FS, error) {
	if mode == OffXFTL && !dev.Transactional() {
		return nil, ErrNeedsXFTL
	}
	const dataStart = metaRegionPages + journalRegionPages
	capacity := dev.LogicalPages()
	if capacity <= dataStart {
		return nil, fmt.Errorf("simfs: device too small (%d pages)", capacity)
	}
	if host == nil {
		host = &metrics.HostCounters{}
	}
	return &FS{
		dev:       dev,
		mode:      mode,
		host:      host,
		maxDirty:  maxDirtyPages,
		files:     make(map[string]*inode),
		persisted: make(map[string]inodeImage),
		touched:   make(map[string]struct{}),
		dataStart: dataStart,
		nextAlloc: dataStart,
		capacity:  capacity,
		dirtyMeta: make(map[int64]struct{}),
		prepared:  make(map[uint64]*preparedTx),
		nextTid:   1,
		mounted:   true,
	}, nil
}

// Device returns the underlying storage device.
func (fs *FS) Device() *storage.Device { return fs.dev }

// PageSize reports the file-system page size (same as the device's).
func (fs *FS) PageSize() int { return fs.dev.PageSize() }

// SetTracer installs (or, with nil, removes) the event tracer for
// file-system-level events (page reads/writes by class, fsync spans).
func (fs *FS) SetTracer(t *trace.Tracer) { fs.tracer = t }

// Tracer returns the installed tracer (nil when disabled); the pager
// reaches through this to emit its own events.
func (fs *FS) Tracer() *trace.Tracer { return fs.tracer }

// ioCtx is how a page I/O is attributed and issued: the session and
// serving-tier request it is charged to, and whether page I/O is queued
// rather than waited for: a Snapshot's reads, and the page writes of the
// writer's fsync (its reads always wait — a B-tree descent is a
// dependency chain). The writer path has one (FS.io, under wmu); every
// Snapshot has its own.
type ioCtx struct {
	sess      uint64
	req       uint64
	pipelined bool
}

// SetIOContext hands the writer-path I/O context to a session: its I/O
// is attributed to sess (the previous owner's request id is dropped),
// and pipelined selects queued commit-time writes — inside an OffXFTL
// fsync the data and metadata page writes are submitted without waiting
// for their virtual completion, so they overlap across flash units, and
// the commit(t) that ends the fsync fences them. The command stream is
// the same either way; only its timing differs. Call from the goroutine
// holding the write turn; ClearIOContext when done.
func (fs *FS) SetIOContext(sess uint64, pipelined bool) {
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	fs.io = ioCtx{sess: sess, pipelined: pipelined}
}

// SetIOReq tags subsequent writer-path I/O with a serving-tier request
// id (0 = none). Same single-writer discipline as SetIOContext.
func (fs *FS) SetIOReq(req uint64) {
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	fs.io.req = req
}

// ClearIOContext detaches the writer-path I/O attribution.
func (fs *FS) ClearIOContext() { fs.SetIOContext(0, false) }

// IOSession reports the session id of the current writer context.
func (fs *FS) IOSession() uint64 {
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	return fs.io.sess
}

// read issues one page read under a context — the writer's or a
// Snapshot's — and counts it: globally, and as a trace event carrying
// the submit-to-completion window. A queued read does not wait for its
// virtual completion; Done is still filled in (completion is computed at
// submission), so the window recorded is the same either way.
func (fs *FS) read(r *ncq.Request, io *ioCtx, queued bool) error {
	r.Sess, r.Req = io.sess, io.req
	var err error
	if queued {
		err = fs.dev.Queue().Submit(r)
	} else {
		err = fs.dev.Queue().SubmitWait(r)
	}
	fs.host.Reads.Add(1)
	if fs.tracer != nil {
		fs.tracer.Record(trace.Event{
			Layer: trace.LFS, Kind: trace.KFSRead,
			Start: r.Submitted, Dur: r.Done - r.Submitted,
			Addr: r.LPN, Sess: r.Sess, Req: r.Req, TID: r.TID, Origin: r.Origin,
		})
	}
	return err
}

// noteWrite counts one host page write of the given class (trace.WDB /
// WJournal / WFSMeta) — globally, and as a trace event. Writer path
// only.
func (fs *FS) noteWrite(class int64, lpn int64, tid uint64) {
	switch class {
	case trace.WJournal:
		fs.host.JournalWrites.Add(1)
	case trace.WFSMeta:
		fs.host.FSMetaWrites.Add(1)
	default:
		fs.host.DBWrites.Add(1)
	}
	if fs.tracer != nil {
		origin := trace.OHost
		if class == trace.WFSMeta {
			origin = trace.OMeta
		}
		fs.tracer.Record(trace.Event{
			Layer: trace.LFS, Kind: trace.KFSWrite,
			Start: fs.tracer.Now(),
			Addr:  lpn, Aux: class, Sess: fs.io.sess, Req: fs.io.req, TID: tid, Origin: origin,
		})
	}
}

// submit runs one writer-path command, attributed to the current I/O
// context: to completion, or — a page write of a pipelined writer's
// fsync (queueing) — only into the queue, where the commit that ends the
// fsync fences it. The queue keeps nothing of a command — not its Data
// either — once Submit or SubmitWait has returned, so a queued write's
// buffer is released exactly as a waited one's.
func (fs *FS) submit(r ncq.Request) error {
	r.Sess, r.Req = fs.io.sess, fs.io.req
	if fs.queueing {
		return fs.dev.Queue().Submit(&r)
	}
	return fs.dev.Queue().SubmitWait(&r)
}

// barrier issues a session-attributed write barrier.
func (fs *FS) barrier() error {
	return fs.submit(ncq.Request{Op: ncq.OpBarrier})
}

// FreePages reports how many data pages remain unallocated.
func (fs *FS) FreePages() int64 {
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	return (fs.capacity - fs.nextAlloc) + int64(len(fs.freeList))
}

func (fs *FS) check() error {
	if !fs.mounted {
		return ErrNotMounted
	}
	return nil
}

// allocPage grabs one free data page.
func (fs *FS) allocPage() (int64, error) {
	if n := len(fs.freeList); n > 0 {
		lpn := fs.freeList[n-1]
		fs.freeList = fs.freeList[:n-1]
		return lpn, nil
	}
	if fs.nextAlloc >= fs.capacity {
		return 0, ErrNoSpace
	}
	lpn := fs.nextAlloc
	fs.nextAlloc++
	return lpn, nil
}

// Synthetic metadata page addresses. Their exact placement is
// irrelevant; what matters is that metadata updates cost real device
// writes with the cardinality ext4 would issue.
func (fs *FS) dirPage() int64 { return 0 }
func (fs *FS) inodePage(name string) int64 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return 1 + int64(h%((metaRegionPages-1)/2))
}
func (fs *FS) bitmapPage(lpn int64) int64 {
	span := fs.capacity/int64(metaRegionPages/2) + 1
	return int64(metaRegionPages/2) + (lpn-fs.dataStart)/span
}

// markMeta records that a metadata page needs journaling (or, in
// OffXFTL mode, a transactional home write at the next commit point).
func (fs *FS) markMeta(lpns ...int64) {
	for _, l := range lpns {
		fs.dirtyMeta[l] = struct{}{}
	}
}

// Create makes a new empty file.
func (fs *FS) Create(name string, role Role) (*File, error) {
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	if err := fs.check(); err != nil {
		return nil, err
	}
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	ino := &inode{name: name, role: role}
	fs.files[name] = ino
	fs.touch(name)
	fs.markMeta(fs.dirPage(), fs.inodePage(name))
	return fs.newFile(ino), nil
}

// Open returns a handle to an existing file.
func (fs *FS) Open(name string) (*File, error) {
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	if err := fs.check(); err != nil {
		return nil, err
	}
	ino, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return fs.newFile(ino), nil
}

// Exists reports whether a file is present in the namespace.
func (fs *FS) Exists(name string) bool {
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	_, ok := fs.files[name]
	return ok
}

// Remove deletes a file: its pages are trimmed on the device and the
// namespace/metadata updates are queued for the next commit point.
// SQLite's rollback mode relies on deletion being atomic; the paper
// notes this is guaranteed by metadata journaling (or, here, by X-FTL).
func (fs *FS) Remove(name string) error {
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	if err := fs.check(); err != nil {
		return err
	}
	ino, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	for _, lpn := range ino.pages {
		if lpn < 0 {
			continue
		}
		if err := fs.submit(ncq.Request{Op: ncq.OpTrim, LPN: lpn}); err != nil {
			return err
		}
		// The page becomes reusable only after the deletion is durable
		// (next commit point); reusing it earlier could hand a crash
		// recovery a resurrected file pointing at foreign data.
		fs.pendingFree = append(fs.pendingFree, lpn)
		fs.markMeta(fs.bitmapPage(lpn))
	}
	delete(fs.files, name)
	fs.touch(name)
	fs.markMeta(fs.dirPage(), fs.inodePage(name))
	// Deletion durability rides the next journal commit; SQLite's
	// correctness only needs atomicity, which the journal (or X-FTL
	// commit) provides.
	return nil
}

// touch records that a file was created or removed, or that its page
// table changed, since the last commit point. Every assignment to an
// inode's pages (and every change to the files map) outside Remount
// must be followed by one.
func (fs *FS) touch(name string) { fs.touched[name] = struct{}{} }

// commitPoint brings the durable image a remount would recover up to
// the live namespace — re-imaging only the files touched since the last
// commit point, so its cost does not grow with the file system — and
// clears the dirty-metadata set.
func (fs *FS) commitPoint() {
	if len(fs.touched) > 0 && fs.shared {
		fs.persisted, fs.shared = maps.Clone(fs.persisted), false
	}
	for name := range fs.touched {
		if ino, ok := fs.files[name]; ok {
			var reuse []int64
			if fs.mode != OffXFTL {
				reuse = fs.persisted[name].pages
			}
			fs.persisted[name] = imageOf(ino, reuse)
		} else {
			delete(fs.persisted, name)
		}
	}
	clear(fs.touched)
	fs.freeList = append(fs.freeList, fs.pendingFree...)
	fs.pendingFree = fs.pendingFree[:0]
	clear(fs.dirtyMeta)
}

// journalCommit writes the pending metadata (and, in Full mode, the
// provided data payload pages) through the circular fs journal:
// descriptor + blocks + commit record, then a write barrier.
func (fs *FS) journalCommit(dataPages [][]byte) error {
	nMeta := len(fs.dirtyMeta)
	if nMeta == 0 && len(dataPages) == 0 {
		return nil
	}
	writeJournalPage := func(payload []byte) error {
		lpn := metaRegionPages + fs.journalHead
		fs.journalHead = (fs.journalHead + 1) % journalRegionPages
		fs.noteWrite(trace.WFSMeta, lpn, 0)
		return fs.submit(ncq.Request{Op: ncq.OpWrite, LPN: lpn, Data: payload, Origin: trace.OMeta})
	}
	// Descriptor, metadata and commit-record pages carry no content: nil
	// data is a blank program, which reads back as zeros.
	if err := writeJournalPage(nil); err != nil { // descriptor
		return err
	}
	for _, d := range dataPages {
		if err := writeJournalPage(d); err != nil {
			return err
		}
	}
	for range nMeta {
		if err := writeJournalPage(nil); err != nil {
			return err
		}
	}
	if err := writeJournalPage(nil); err != nil { // commit record
		return err
	}
	if err := fs.barrier(); err != nil {
		return err
	}
	fs.commitPoint()
	return nil
}

// PowerCut simulates power loss below the file system: caches vanish
// and the device loses its volatile state.
func (fs *FS) PowerCut() {
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	fs.epoch.Add(1)
	fs.mounted = false
	fs.dev.PowerCut()
}

// Epoch reports how many power cuts this file system has absorbed.
// Lock-free; pooled readers compare it on every checkout.
func (fs *FS) Epoch() uint64 { return fs.epoch.Load() }

// Remount recovers after a power cut: the device runs its firmware
// recovery, then the file system reloads the namespace image from its
// last metadata commit point (journal replay). Unreferenced data pages
// are returned to the allocator.
func (fs *FS) Remount() error {
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	if fs.mounted {
		return nil
	}
	if err := fs.dev.Restart(); err != nil {
		return err
	}
	// Settle the fate of prepared transactions the crash left behind.
	// The device is authoritative: a tid it still reports in-doubt waits
	// for the coordinator (ResolveInDoubt); a tid whose commit record
	// reached the device's transaction log crashed mid-phase-two with the
	// decision durable, so its namespace image promotes now; anything
	// else never survived prepare (or was durably aborted) and is
	// dropped — its pages rejoin the allocator through the rebuild below.
	stillInDoubt := make(map[uint64]bool)
	for _, tid := range fs.dev.InDoubt() {
		stillInDoubt[tid] = true
	}
	for tid, prep := range fs.prepared {
		if stillInDoubt[tid] {
			continue
		}
		if fs.dev.FTL().TxCommitted(tid) {
			fs.mu.Lock()
			if fs.shared {
				fs.persisted, fs.shared = maps.Clone(fs.persisted), false
			}
			maps.Copy(fs.persisted, prep.images)
			fs.mu.Unlock()
		}
		delete(fs.prepared, tid)
	}
	fs.files = make(map[string]*inode)
	used := make(map[int64]bool)
	for name, img := range fs.persisted {
		fs.files[name] = &inode{name: name, role: img.role, pages: slices.Clone(img.pages)}
		for _, l := range img.pages {
			if l >= 0 {
				used[l] = true
			}
		}
	}
	clear(fs.touched) // every live inode was just rebuilt from its image
	// Pages referenced only by a still-in-doubt prepared image must not
	// be reallocated while the coordinator's decision is pending.
	for _, prep := range fs.prepared {
		for _, img := range prep.images {
			for _, l := range img.pages {
				if l >= 0 {
					used[l] = true
				}
			}
		}
	}
	// Rebuild the free list below nextAlloc. Pre-crash pendingFree
	// entries must be dropped, not carried over: a page trimmed after
	// the last commit point may be live again now (its owning file was
	// resurrected by the image), and when recovery re-deletes that file
	// the page would enter pendingFree a second time — the duplicate
	// free-list entries would then double-allocate one device page to
	// two file pages. Pages whose deletion never committed but whose
	// owner is also absent from the image are unreferenced and rejoin
	// the free list through the rebuild below.
	fs.pendingFree = fs.pendingFree[:0]
	fs.freeList = fs.freeList[:0]
	for lpn := fs.dataStart; lpn < fs.nextAlloc; lpn++ {
		if !used[lpn] {
			fs.freeList = append(fs.freeList, lpn)
		}
	}
	clear(fs.dirtyMeta)
	fs.mounted = true
	return nil
}

// File is an open handle with a per-file write-back cache and — in
// OffXFTL mode — an implicit device transaction spanning the window
// between commit points (fsync) and abort requests (ioctl).
type File struct {
	fs     *FS
	ino    *inode
	dirty  map[int64][]byte // file page index -> pending content
	order  []int64          // dirty page indexes in first-write order
	tid    uint64           // active device tid (OffXFTL), 0 = none
	closed bool
}

func (fs *FS) newFile(ino *inode) *File {
	return &File{fs: fs, ino: ino, dirty: make(map[int64][]byte)}
}

// Name returns the file's name.
func (f *File) Name() string { return f.ino.name }

// Pages reports the current file length in pages, including cached
// appends.
func (f *File) Pages() int64 { return int64(len(f.ino.pages)) }

func (f *File) check() error {
	if f.closed {
		return ErrClosed
	}
	return f.fs.check()
}

// tidFor lazily assigns the file-system-managed transaction id used
// for the X-FTL extended commands (§5.2).
func (f *File) tidFor() uint64 {
	if f.tid == 0 {
		f.tid = f.fs.nextTid
		f.fs.nextTid++
	}
	return f.tid
}

// TxID exposes the active device transaction id (0 if none); used by
// tests and by multi-file transaction coordination.
func (f *File) TxID() uint64 { return f.tid }

// AdoptTx joins this file to an existing device transaction so that a
// multi-file update commits atomically under one tid (§4.3).
func (f *File) AdoptTx(tid uint64) { f.tid = tid }

// Pending reports whether the handle holds anything Abort would take
// back: pages in its write-back cache, or on the device under its tid.
func (f *File) Pending() bool { return f.tid != 0 || len(f.dirty) > 0 }

// WritePage stores a full page at the given file page index, extending
// the file as needed. Content is cached; device writes happen on cache
// pressure or fsync.
func (f *File) WritePage(idx int64, data []byte) error {
	f.fs.wmu.Lock()
	defer f.fs.wmu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	if idx < 0 {
		return fmt.Errorf("%w: %d", ErrOutOfBounds, idx)
	}
	if int64(len(f.ino.pages)) <= idx {
		for int64(len(f.ino.pages)) <= idx {
			f.ino.pages = append(f.ino.pages, -1)
			f.fs.markMeta(f.fs.inodePage(f.ino.name)) // size change
		}
		f.fs.touch(f.ino.name)
	}
	buf, ok := f.dirty[idx]
	if !ok {
		f.order = append(f.order, idx)
		buf = f.fs.takeBuf()
		f.dirty[idx] = buf
	}
	clear(buf[copy(buf, data):])
	if len(f.dirty) > f.fs.maxDirty {
		return f.writeBackSome(len(f.dirty) - f.fs.maxDirty)
	}
	return nil
}

// takeBuf returns a page buffer for the write-back cache, one released
// by an earlier write-back when there is one. Content is unspecified.
func (fs *FS) takeBuf() []byte {
	if n := len(fs.freeBufs); n > 0 {
		buf := fs.freeBufs[n-1]
		fs.freeBufs = fs.freeBufs[:n-1]
		return buf
	}
	return make([]byte, fs.PageSize())
}

// release drops a page from the file's write-back cache — its content
// has reached the device, or is being discarded — and keeps the buffer
// for a later WritePage.
func (f *File) release(idx int64) {
	if buf, ok := f.dirty[idx]; ok {
		f.fs.freeBufs = append(f.fs.freeBufs, buf)
		delete(f.dirty, idx)
	}
}

// ReadPage fetches a full page, preferring the write-back cache, then
// the device (with the file's transaction id in OffXFTL mode, so a
// transaction reads its own stolen writes back).
func (f *File) ReadPage(idx int64, buf []byte) error {
	f.fs.wmu.Lock()
	defer f.fs.wmu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	if idx < 0 || idx >= int64(len(f.ino.pages)) {
		return fmt.Errorf("%w: %d of %d", ErrOutOfBounds, idx, len(f.ino.pages))
	}
	if d, ok := f.dirty[idx]; ok {
		copy(buf, d)
		return nil
	}
	lpn := f.ino.pages[idx]
	if lpn < 0 {
		clear(buf[:min(len(buf), f.fs.PageSize())])
		return nil
	}
	r := ncq.Request{Op: ncq.OpRead, LPN: lpn, Buf: buf}
	if f.fs.mode == OffXFTL && f.tid != 0 {
		r.Op, r.TID = ncq.OpReadTx, f.tid
	}
	return f.fs.read(&r, &f.fs.io, false)
}

// writeClass maps the file's role to a trace/counter write class.
func (f *File) writeClass() int64 {
	if f.ino.role == RoleJournal {
		return trace.WJournal
	}
	return trace.WDB
}

// ensureLPN allocates the home device page for a file page on first
// write-back.
func (f *File) ensureLPN(idx int64) (int64, error) {
	lpn := f.ino.pages[idx]
	if lpn >= 0 {
		return lpn, nil
	}
	lpn, err := f.fs.allocPage()
	if err != nil {
		return 0, err
	}
	f.ino.pages[idx] = lpn
	f.fs.touch(f.ino.name)
	f.fs.markMeta(f.fs.bitmapPage(lpn), f.fs.inodePage(f.ino.name))
	return lpn, nil
}

// writeData pushes one cached page to its home location on the device,
// transactionally in OffXFTL mode.
func (f *File) writeData(idx int64, data []byte) error {
	lpn, err := f.ensureLPN(idx)
	if err != nil {
		return err
	}
	r := ncq.Request{Op: ncq.OpWrite, LPN: lpn, Data: data}
	if f.fs.mode == OffXFTL {
		r.Op, r.TID = ncq.OpWriteTx, f.tidFor()
	}
	f.fs.noteWrite(f.writeClass(), lpn, r.TID)
	return f.fs.submit(r)
}

// writeBackSome evicts the oldest n dirty pages (cache pressure). In
// OffXFTL mode this is the steal path: uncommitted pages reach flash
// under the transaction id and remain invisible and revocable.
func (f *File) writeBackSome(n int) error {
	for n > 0 && len(f.order) > 0 {
		idx := f.order[0]
		f.order = f.order[1:]
		data, ok := f.dirty[idx]
		if !ok {
			continue
		}
		if err := f.writeData(idx, data); err != nil {
			return err
		}
		f.release(idx)
		n--
	}
	return nil
}

// flushDirty writes every cached page home in first-write order; Full
// mode journals the payloads first. A page's buffer is released only
// after its home write, so the journal and the home write see the same
// bytes.
func (f *File) flushDirty() error {
	if f.fs.mode == Full {
		var payloads [][]byte
		for _, idx := range f.order {
			if data, ok := f.dirty[idx]; ok {
				payloads = append(payloads, data)
			}
		}
		if len(payloads) > 0 {
			// Data journaling: the payloads go through the journal before
			// the home-location writes.
			if err := f.fs.journalCommit(payloads); err != nil {
				return err
			}
		}
	}
	for _, idx := range f.order {
		data, ok := f.dirty[idx]
		if !ok {
			continue
		}
		if err := f.writeData(idx, data); err != nil {
			return err
		}
		f.release(idx)
	}
	f.order = f.order[:0]
	return nil
}

// Fsync makes the file's data and metadata durable according to the
// journaling mode:
//
//   - Ordered: data home writes, barrier, metadata journal commit
//     (second barrier) — the paper's two-barrier pattern.
//   - Full: data+metadata journal commit with barrier (done inside
//     flushDirty), then home-location data writes.
//   - OffXFTL: transactional home writes followed by a single
//     commit(t), which is simultaneously the write barrier.
func (f *File) Fsync() error {
	f.fs.wmu.Lock()
	defer f.fs.wmu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	f.fs.host.Fsyncs.Add(1)
	if tr := f.fs.tracer; tr != nil {
		start := tr.Now()
		defer func() {
			tr.Record(trace.Event{
				Layer: trace.LFS, Kind: trace.KFSync,
				Start: start, Dur: tr.Now() - start,
				Aux: int64(f.fs.mode), Sess: f.fs.io.sess,
			})
		}()
	}
	return f.fsync()
}

// writeMetaTx writes the dirty metadata pages home under the file's
// transaction id (OffXFTL): X-FTL makes them atomic with the data,
// replacing the metadata journal. The pages carry no content: nil Data
// is a blank program. Ascending LPN order, not map order, so the same
// seed programs the same flash pages on every run.
func (f *File) writeMetaTx() error {
	fs := f.fs
	if len(fs.dirtyMeta) == 0 {
		return nil
	}
	lpns := make([]int64, 0, len(fs.dirtyMeta))
	for lpn := range fs.dirtyMeta {
		lpns = append(lpns, lpn)
	}
	slices.Sort(lpns)
	tid := f.tidFor()
	for _, lpn := range lpns {
		fs.noteWrite(trace.WFSMeta, lpn, tid)
		if err := fs.submit(ncq.Request{
			Op: ncq.OpWriteTx, TID: tid, LPN: lpn, Origin: trace.OMeta,
		}); err != nil {
			return err
		}
	}
	return nil
}

// flushTx is the first half of an OffXFTL commit point, whether it ends
// in commit(t) or prepare(t): the cached data pages, then the dirty
// metadata pages, go home under the file's transaction id, which it
// returns (0: nothing transactional was written). A pipelined writer only
// queues these writes; the command that follows is the fence they
// complete behind.
func (f *File) flushTx() (uint64, error) {
	f.fs.queueing = f.fs.io.pipelined
	err := f.flushDirty()
	if err == nil {
		err = f.writeMetaTx()
	}
	f.fs.queueing = false
	return f.tid, err
}

func (f *File) fsync() error {
	switch f.fs.mode {
	case Ordered:
		if err := f.flushDirty(); err != nil {
			return err
		}
		if err := f.fs.barrier(); err != nil {
			return err
		}
		if err := f.fs.journalCommit(nil); err != nil {
			return err
		}
		// A durability fsync with no metadata still costs a barrier in
		// journalCommit only when metadata was dirty; the data barrier
		// above always ran, matching fdatasync-like behaviour.
		return nil
	case Full:
		if err := f.flushDirty(); err != nil {
			return err
		}
		// flushDirty journaled data (+ metadata) and barriered; if only
		// metadata is pending (no data), commit it now.
		return f.fs.journalCommit(nil)
	case OffXFTL:
		tid, err := f.flushTx()
		if err != nil {
			return err
		}
		if tid == 0 {
			// Nothing transactional was written; a pure barrier
			// suffices for durability.
			return f.fs.barrier()
		}
		// The device commit and the persisted-image update form the
		// commit point; fs.mu keeps a concurrent OpenSnapshot from pairing
		// the new device state with the old namespace image.
		f.fs.mu.Lock()
		defer f.fs.mu.Unlock()
		if err := f.fs.submit(ncq.Request{Op: ncq.OpCommit, TID: tid}); err != nil {
			return err
		}
		f.tid = 0
		f.fs.commitPoint()
		return nil
	default:
		return fmt.Errorf("simfs: unknown mode %v", f.fs.mode)
	}
}

// Prepare runs phase one of a cross-device two-phase commit on this
// file's transaction: the OffXFTL fsync's own first half (flushTx), ended
// with prepare(t) instead of commit(t), so the page set is durable yet
// invisible, and the inode images the eventual commit would promote are
// recorded. group names every file that shares the transaction id (a
// multi-database group commit); the lead file itself is always included.
// The returned tid identifies the participant transaction to the
// coordinator; it is 0 when nothing transactional was written (a
// read-only participant, trivially prepared).
//
// The caller must exclude commits of the group's files between Prepare
// and ResolveInDoubt — the shard coordinator holds a per-shard gate
// across the window. Unrelated files on the same file system may commit
// freely; their images are not captured.
func (f *File) Prepare(group ...string) (uint64, error) {
	f.fs.wmu.Lock()
	defer f.fs.wmu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	if f.fs.mode != OffXFTL {
		return 0, fmt.Errorf("simfs: Prepare requires OffXFTL mode, have %v", f.fs.mode)
	}
	tid, err := f.flushTx()
	if err != nil {
		return 0, err
	}
	if tid == 0 {
		// Read-only participant: a barrier orders whatever non-
		// transactional writes preceded it, and there is nothing to
		// prepare.
		return 0, f.fs.barrier()
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.submit(ncq.Request{Op: ncq.OpPrepare, TID: tid}); err != nil {
		return 0, err
	}
	names := append([]string{f.ino.name}, group...)
	images := make(map[string]inodeImage, len(names))
	for _, name := range names {
		if ino, ok := f.fs.files[name]; ok {
			images[name] = imageOf(ino, nil)
		}
	}
	f.fs.prepared[tid] = &preparedTx{images: images}
	clear(f.fs.dirtyMeta)
	// f.tid stays set: the transaction is decided but not finished; the
	// handle releases it in FinishPrepared.
	return tid, nil
}

// FinishPrepared applies the coordinator's decision to the transaction
// this handle prepared and releases the handle's transaction id. A handle
// whose transaction is not prepared has nothing to resolve and keeps it.
func (f *File) FinishPrepared(commit bool) error {
	f.fs.wmu.Lock()
	defer f.fs.wmu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	tid := f.tid
	if _, ok := f.fs.prepared[tid]; !ok {
		return nil
	}
	f.tid = 0
	return f.fs.resolveInDoubt(tid, commit)
}

// ResolveInDoubt applies a coordinator decision to a prepared
// transaction — either the live continuation of File.Prepare or the
// recovery of an in-doubt participant surfaced by InDoubt after a
// remount. Commit makes the device transaction visible and promotes the
// prepared namespace image to the durable commit point; abort durably
// retracts the prepare and reverts every inode to its last committed
// image.
func (fs *FS) ResolveInDoubt(tid uint64, commit bool) error {
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	return fs.resolveInDoubt(tid, commit)
}

func (fs *FS) resolveInDoubt(tid uint64, commit bool) error {
	if err := fs.check(); err != nil {
		return err
	}
	prep, ok := fs.prepared[tid]
	if !ok {
		return fmt.Errorf("simfs: no prepared transaction %d", tid)
	}
	op := ncq.OpAbort
	if commit {
		op = ncq.OpCommit
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.submit(ncq.Request{Op: op, TID: tid}); err != nil {
		return err
	}
	delete(fs.prepared, tid)
	if commit && fs.shared {
		fs.persisted, fs.shared = maps.Clone(fs.persisted), false
	}
	// Reconcile exactly the prepared group's files; every other file on
	// this file system keeps whatever state its own commits established.
	for name, img := range prep.images {
		fs.touch(name)
		if commit {
			// Promote the prepared image to the durable commit point and
			// make the live inode match (a no-op in the live path — the
			// inode already holds the prepared state — and the real work
			// after a remount rebuilt inodes from the old images).
			fs.persisted[name] = img
			live := slices.Clone(img.pages)
			if ino, ok := fs.files[name]; ok {
				ino.role = img.role
				ino.pages = live
			} else {
				fs.files[name] = &inode{name: name, role: img.role, pages: live}
			}
			continue
		}
		// Abort. After a remount the live inode was rebuilt from the old
		// image; the pages to give back are the prepared image's.
		fs.revert(name, img.pages)
	}
	return nil
}

// revert takes a file back to its last durable image — the tail of every
// abort, live or resolved after a remount. gone is the page table being
// given up: the pages only it refers to return to the allocator. A file
// that has no durable image yet is empty again. The caller records the
// touch.
func (fs *FS) revert(name string, gone []int64) {
	old := fs.persisted[name]
	keep := make(map[int64]bool, len(old.pages))
	for _, l := range old.pages {
		if l >= 0 {
			keep[l] = true
		}
	}
	for _, l := range gone {
		if l >= 0 && !keep[l] {
			fs.freeList = append(fs.freeList, l)
		}
	}
	if ino, ok := fs.files[name]; ok {
		ino.pages = slices.Clone(old.pages)
	}
}

// InDoubt lists prepared transactions whose coordinator decision is
// unknown after a remount. Each must be resolved with ResolveInDoubt
// before new writers are admitted.
func (fs *FS) InDoubt() []uint64 {
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	ids := make([]uint64, 0, len(fs.prepared))
	for tid := range fs.prepared {
		ids = append(ids, tid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Abort implements the new ioctl request type of §5.1/§5.2: cached
// dirty pages are dropped, stolen (already written-back) pages are
// rolled back inside the device via abort(t), and the inode reverts to
// its last durable image.
func (f *File) Abort() error {
	f.fs.wmu.Lock()
	defer f.fs.wmu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	for idx := range f.dirty {
		f.release(idx)
	}
	f.order = f.order[:0]
	if f.fs.mode == OffXFTL && f.tid != 0 {
		if err := f.fs.submit(ncq.Request{Op: ncq.OpAbort, TID: f.tid}); err != nil {
			return err
		}
		f.tid = 0
	}
	// Revert inode growth performed by the aborted window.
	f.fs.revert(f.ino.name, f.ino.pages)
	f.fs.touch(f.ino.name)
	return nil
}

// Truncate shrinks (or zero-extends) the file to n pages. Shrinking
// trims the device pages; SQLite uses this to reset its WAL.
func (f *File) Truncate(n int64) error {
	f.fs.wmu.Lock()
	defer f.fs.wmu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("%w: %d", ErrOutOfBounds, n)
	}
	for int64(len(f.ino.pages)) > n {
		idx := int64(len(f.ino.pages)) - 1
		if lpn := f.ino.pages[idx]; lpn >= 0 {
			if err := f.fs.submit(ncq.Request{Op: ncq.OpTrim, LPN: lpn}); err != nil {
				return err
			}
			f.fs.pendingFree = append(f.fs.pendingFree, lpn)
			f.fs.markMeta(f.fs.bitmapPage(lpn))
		}
		f.release(idx)
		f.ino.pages = f.ino.pages[:idx]
	}
	for int64(len(f.ino.pages)) < n {
		f.ino.pages = append(f.ino.pages, -1)
	}
	f.fs.touch(f.ino.name)
	f.fs.markMeta(f.fs.inodePage(f.ino.name))
	// Drop cached pages beyond the new end from the write order.
	kept := f.order[:0]
	for _, idx := range f.order {
		if _, ok := f.dirty[idx]; ok && idx < n {
			kept = append(kept, idx)
		}
	}
	f.order = kept
	return nil
}

// Close releases the handle. Dirty pages remain cached in the handle
// and are lost; call Fsync first for durability, exactly as with a real
// file descriptor whose process exits.
func (f *File) Close() error {
	f.closed = true
	return nil
}

// FlushAll pushes every cached dirty page to the device without the
// commit/barrier step, so that multiple files can stage their writes
// under one shared transaction id before a single Fsync commits them
// all (the multi-file atomic update of the paper's §4.3).
func (f *File) FlushAll() error {
	f.fs.wmu.Lock()
	defer f.fs.wmu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	return f.writeBackSome(len(f.dirty))
}

// Snapshot is a point-in-time read-only view of the file system: the
// namespace and file extents as of the last commit point, with page
// content served from the device versions pinned at open. A Snapshot
// never blocks on — and is never changed by — the concurrent writer:
// reads touch only the handle's own I/O context, immutable inode images
// and their name table, and the device queue; never a live inode, nor
// wmu. One goroutine at a time may use a handle.
type Snapshot struct {
	fs     *FS
	id     core.SnapID           // the device's snapshot id, for OpSnapRead
	seq    uint64                // commit sequence the snapshot observed at open
	epoch  uint64                // power-cut epoch at open
	inodes map[string]inodeImage // the persisted map at open, never written once shared
	io     ioCtx
	closed bool
}

// OpenSnapshot pins the current committed state — device page versions
// plus the persisted namespace image — and returns a read-only view of
// it. Requires OffXFTL mode (the transactional device holds the
// versions). Costs no flash I/O.
func (fs *FS) OpenSnapshot() (*Snapshot, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.check(); err != nil {
		return nil, err
	}
	if fs.mode != OffXFTL {
		return nil, ErrSnapshotMode
	}
	id, seq, err := fs.dev.SnapshotOpen()
	if err != nil {
		return nil, err
	}
	// The persisted (committed) namespace, not the live one: the live
	// inodes may carry uncommitted growth or truncation from the writer's
	// open transaction, which the pinned device versions do not reflect.
	// Nothing is copied: the images are immutable, and the name table is
	// copied before its next write.
	fs.shared = true
	return &Snapshot{fs: fs, id: id, seq: seq, epoch: fs.epoch.Load(), inodes: fs.persisted}, nil
}

// SetIOContext hands the snapshot's I/O to a session: its reads are
// attributed to sess (the previous owner's request id is dropped), and
// pipelined selects asynchronous page reads — a read submits through the
// NCQ queue without waiting for virtual completion, so concurrent readers
// keep the multi-channel scheduler busy. Page content is valid on return
// either way; only the simulated completion time differs. Call when the
// snapshot changes owner, before it issues reads.
func (s *Snapshot) SetIOContext(sess uint64, pipelined bool) {
	s.io = ioCtx{sess: sess, pipelined: pipelined}
}

// SetIOReq tags the snapshot's I/O with a serving-tier request id
// (0 = none).
func (s *Snapshot) SetIOReq(req uint64) { s.io.req = req }

// Session reports the session id the snapshot's I/O attributes to.
func (s *Snapshot) Session() uint64 { return s.io.sess }

// Seq reports the commit sequence the snapshot observed at open. Two
// snapshots with equal Seq and Epoch pin identical committed states —
// the reader pool's reuse condition.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Epoch reports the file system's power-cut epoch at the snapshot's
// open; a pooled snapshot from an older epoch is dead regardless of
// its sequence.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Pages reports the file's committed length in pages (0 if absent).
func (s *Snapshot) Pages(name string) int64 {
	return int64(len(s.inodes[name].pages))
}

// ReadPage reads one file page as of the snapshot. Unwritten holes read
// as zeros.
func (s *Snapshot) ReadPage(name string, idx int64, buf []byte) error {
	img, ok := s.inodes[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if idx < 0 || idx >= int64(len(img.pages)) {
		return fmt.Errorf("%w: %d of %d", ErrOutOfBounds, idx, len(img.pages))
	}
	lpn := img.pages[idx]
	if lpn < 0 {
		clear(buf[:min(len(buf), s.fs.PageSize())])
		return nil
	}
	r := ncq.Request{Op: ncq.OpSnapRead, TID: uint64(s.id), LPN: lpn, Buf: buf}
	return s.fs.read(&r, &s.io, s.io.pipelined)
}

// Close releases the snapshot's device pins. Closing twice is a no-op.
func (s *Snapshot) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.fs.dev.SnapshotClose(s.id)
}
