// Package ftl implements the baseline page-mapping flash translation
// layer of the OpenSSD firmware the paper starts from: a logical-to-
// physical (L2P) page map, sequential write frontier, greedy garbage
// collection, and mapping-table persistence on write barriers.
//
// The package also exposes the low-level primitives X-FTL (package
// internal/core) builds on: allocating and programming a physical page
// without installing it in the L2P table, remapping a logical page to a
// new physical page, and a Hook interface that lets an upper layer
// extend page liveness during garbage collection — exactly the "a page
// is considered invalid only when it is not found in either the L2P
// table or the X-L2P table" rule of the paper (§5.3).
package ftl

import (
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/trace"
)

// LPN is a logical page number as seen by the host.
type LPN int64

// Errors returned by the FTL.
var (
	ErrLPNRange    = errors.New("ftl: logical page out of range")
	ErrDeviceFull  = errors.New("ftl: no free blocks available (device full)")
	ErrBadMetaSlot = errors.New("ftl: unknown metadata slot")
)

// Hook lets a transactional layer participate in garbage collection.
type Hook interface {
	// Live reports whether the physical page is referenced by the
	// hook's own tables (e.g. an uncommitted new version in X-L2P).
	Live(ppn nand.PPN) bool
	// Relocated tells the hook GC moved a page it holds a reference to.
	Relocated(old, new nand.PPN)
}

// MetaBlocks is the number of erase blocks, at the end of the chip,
// reserved for mapping-table and transaction-table persistence. The ring
// keeps its next block clean of live pages so it can be erased without
// data movement after a crash, so it needs at least two.
const MetaBlocks = 4

// GCLowWater triggers garbage collection when the number of free blocks
// drops to or below this value.
const GCLowWater = 3

// Config tunes the FTL independent of chip geometry.
type Config struct {
	// LogicalPages is the exported logical capacity. It must leave
	// enough physical headroom (overprovisioning) for GC to make
	// progress; NewFTL validates this.
	LogicalPages int64
	// IncrementalBarrier makes a write barrier store only the dirty map
	// groups (an idealized incremental firmware, used as an ablation).
	// Otherwise it stores the full table, the OpenSSD firmware behaviour
	// the paper describes in §6.3.4: "a write barrier command stores
	// the mapping table as well as data pages persistently".
	IncrementalBarrier bool
	// SpareBlocks is the bad-block replacement reserve: capacity
	// validation keeps this many data blocks out of the exported-space
	// budget so block retirements do not eat into the GC headroom.
	// Zero models a device with no spare budget (retirements then
	// consume overprovisioning directly).
	SpareBlocks int
}

// DefaultConfig sizes the FTL for the default chip: 75% of the data
// blocks are exported as logical space, leaving 25% overprovisioning,
// which is generous but keeps GC cost stable across experiments (the
// GC-pressure experiments control utilization explicitly).
func DefaultConfig(chip nand.Config) Config {
	spare := max(2, chip.Blocks/128)
	dataBlocks := chip.Blocks - MetaBlocks
	return Config{
		LogicalPages: int64(dataBlocks-spare) * int64(chip.PagesPerBlock) * 3 / 4,
		SpareBlocks:  spare,
	}
}

// mapEntriesPerPage is how many 4-byte L2P entries fit in one flash
// page; it defines the granularity of mapping-table persistence.
func mapEntriesPerPage(pageSize int) int64 { return int64(pageSize) / 4 }

// mapLine is how many bytes of a map page (16 entries) one dirty bit
// covers: a cache line.
const mapLine = 64

// FTL is a page-mapping flash translation layer over a NAND chip array.
// It is not safe for concurrent use.
type FTL struct {
	chip *nand.Chip
	cfg  Config

	// Volatile (DRAM) mapping state.
	l2p  mapTable // logical -> physical, InvalidPPN if unmapped
	rmap []LPN    // physical -> logical for data pages, -1 if none

	// Persistent-image mapping state: what the flash-resident mapping
	// table says. Updated when dirty map groups are flushed by a write
	// barrier (or by GC relocating a persisted page). On power loss the
	// volatile state is rebuilt from this image.
	persisted mapTable
	// dirty has one bit per mapLine bytes of l2p written since its group
	// was last persisted, as many words per group; a group is dirty iff
	// one of its bits is set. setL2P sets them and syncGroup clears them,
	// so every line where l2p and persisted differ has its bit set.
	dirty []uint64

	// Data-block management.
	freeBlocks []nand.BlockNum
	cur        nand.BlockNum // active write frontier block
	curPage    int           // next page index in cur; PagesPerBlock when exhausted
	haveCur    bool

	// Metadata region: a ring of blocks persisting map groups and
	// arbitrary upper-layer slots (e.g. the X-L2P table image).
	metaBlocks []nand.BlockNum
	metaCur    int // index into metaBlocks
	metaPage   int
	metaSlots  [][]nand.PPN // slot id -> current page chain, nil when the slot has none
	groupSlots []nand.PPN   // map group -> current ppn, InvalidPPN before its first flush

	// Metadata integrity state. Every programmed page carries a
	// checksummed spare-area record stamped with a sequence number from
	// seq. metaTags holds, per ring block (parallel to metaBlocks), one
	// tag per page mirroring the records of its live meta pages, so the
	// ring can re-home them; metaData mirrors slot payloads by slot id.
	// The slot name <-> id binding is firmware-static (slotIDs/slotNames,
	// id 0 unused); a name is resolved once per API call.
	seq       uint64
	metaTags  [][]metaTag
	metaData  [][]byte
	slotIDs   map[string]uint16
	slotNames []string
	// Spare storage: writeMetaSlot builds a slot's next chain, and
	// WriteMetaSlotData its payload mirror, in these and leaves the
	// superseded ones here after the pointer flip. They are taken (nil)
	// while a call runs: metaProgram re-enters writeMetaSlot when it
	// retires a ring block and persists the BBT.
	spareChain []nand.PPN
	spareData  []byte

	// Committed-transaction log ("txlog" slot): the durable commit
	// point for the transactional layer, kept as merged tid ranges.
	committed    []tidRange
	maxCommitted uint64
	savedTids    []tidRange // NoteCommittedTx's rollback copy and
	txlogBuf     []byte     // encoded log, reused from call to call

	// Bad-block management: blocks retired after program/erase status
	// fails (persisted via the "bbt" meta slot) and the current
	// membership of the metadata ring (blocks drafted from the data
	// pool replace failed ring blocks, so ring membership is dynamic).
	bad         map[nand.BlockNum]bool
	metaSet     map[nand.BlockNum]bool
	retireDepth int // guards cascading retirements

	hook     Hook
	stats    *metrics.FlashCounters
	tracer   *trace.Tracer
	inGC     bool          // guards against re-entrant collection from relocate
	draining nand.BlockNum // the block drainUnit is emptying, never a GC victim; -1 when none
	// held lists the map groups whose flash-resident image still points
	// at a page being evacuated; the page stays valid until settleHeld
	// persists its group.
	held []int64

	// metaBuf is where metaProgram renders a page of slot payload (a map
	// group's page is the table's own), so a meta program does not
	// allocate; the chip copies whatever it is handed. A content-free pad
	// is a blank program (nil payload) whose checksum is zeroCRC, that of
	// an all-zero page.
	metaBuf []byte
	zeroCRC uint32

	// Channel health / quarantine state (health.go). skipped counts, per
	// data block, the frontier pages allocation steered past because
	// their unit was quarantined; those pages stay free forever (until
	// the block is erased), so GC victim eligibility must treat a block
	// whose only free pages are skipped ones as fully written.
	health    []unitHealth
	quarCount int
	// quarGauge mirrors quarCount atomically so external observers (a
	// serving tier's circuit breaker) can sample quarantine pressure
	// without taking the device's command path lock.
	quarGauge    atomic.Int64
	quarTrips    int64
	quarReadmits int64
	degraded     time.Duration // closed quarantine episodes
	skipped      map[nand.BlockNum]int

	// GC observability.
	gcValidCopied int64 // valid pages copied out by GC
	gcVictims     int64 // victim blocks processed

	powerFailed  bool
	wornOut      bool // spare reserve exhausted; terminal
	lastRecovery RecoveryInfo
}

// New creates an FTL over the chip. The stats counters may be shared
// with the chip (they usually are) and may be nil.
func New(chip *nand.Chip, cfg Config, stats *metrics.FlashCounters) (*FTL, error) {
	chipCfg := chip.Config()
	if cfg.SpareBlocks < 0 {
		return nil, errors.New("ftl: SpareBlocks must be non-negative")
	}
	dataBlocks := chipCfg.Blocks - MetaBlocks
	if dataBlocks < GCLowWater+2+cfg.SpareBlocks {
		return nil, errors.New("ftl: too few data blocks for GC to operate")
	}
	maxLogical := int64(dataBlocks-GCLowWater-1-cfg.SpareBlocks) * int64(chipCfg.PagesPerBlock)
	if cfg.LogicalPages <= 0 || cfg.LogicalPages > maxLogical {
		return nil, fmt.Errorf("ftl: LogicalPages %d outside (0, %d]", cfg.LogicalPages, maxLogical)
	}
	if err := checkMapFormat(chipCfg); err != nil {
		return nil, err
	}
	groups := mapPages(cfg.LogicalPages, chipCfg.PageSize)
	lineWords := ((chipCfg.PageSize+mapLine-1)/mapLine + 63) / 64
	f := &FTL{
		chip:       chip,
		cfg:        cfg,
		l2p:        newMapTable(groups, chipCfg.PageSize),
		persisted:  newMapTable(groups, chipCfg.PageSize),
		rmap:       make([]LPN, chipCfg.TotalPages()),
		dirty:      make([]uint64, groups*lineWords),
		draining:   -1,
		metaSlots:  make([][]nand.PPN, 1),
		groupSlots: make([]nand.PPN, groups),
		bad:        make(map[nand.BlockNum]bool),
		metaSet:    make(map[nand.BlockNum]bool, MetaBlocks),
		seq:        1,
		metaData:   make([][]byte, 1),
		slotIDs:    make(map[string]uint16),
		slotNames:  make([]string, 1),
		skipped:    make(map[nand.BlockNum]int),
		stats:      stats,
		metaBuf:    make([]byte, chipCfg.PageSize),
		zeroCRC:    crc32.ChecksumIEEE(make([]byte, chipCfg.PageSize)),
	}
	f.health = make([]unitHealth, chipCfg.Units())
	for g := range f.groupSlots {
		f.groupSlots[g] = nand.InvalidPPN
	}
	for i := range f.rmap {
		f.rmap[i] = -1
	}
	// The last MetaBlocks blocks are the metadata region; everything
	// before is data.
	for b := 0; b < dataBlocks; b++ {
		f.freeBlocks = append(f.freeBlocks, nand.BlockNum(b))
	}
	for b := dataBlocks; b < chipCfg.Blocks; b++ {
		f.metaBlocks = append(f.metaBlocks, nand.BlockNum(b))
		f.metaSet[nand.BlockNum(b)] = true
		f.metaTags = append(f.metaTags, make([]metaTag, chipCfg.PagesPerBlock))
	}
	return f, nil
}

// SetTracer installs (or, with nil, removes) the event tracer. GC
// episodes and quarantines record as spans.
func (f *FTL) SetTracer(t *trace.Tracer) { f.tracer = t }

// SetHook installs the transactional-layer GC hook. Pass nil to remove.
func (f *FTL) SetHook(h Hook) { f.hook = h }

// Chip returns the underlying NAND array.
func (f *FTL) Chip() *nand.Chip { return f.chip }

// Config returns the FTL configuration.
func (f *FTL) Config() Config { return f.cfg }

// LogicalPages reports the exported logical capacity in pages.
func (f *FTL) LogicalPages() int64 { return f.cfg.LogicalPages }

// PageSize reports the page size in bytes.
func (f *FTL) PageSize() int { return f.chip.Config().PageSize }

// FreeBlockCount reports how many fully erased blocks are available.
func (f *FTL) FreeBlockCount() int { return len(f.freeBlocks) }

// Mapping returns the current physical page of a logical page, or
// InvalidPPN when unmapped.
func (f *FTL) Mapping(lpn LPN) nand.PPN {
	if lpn < 0 || int64(lpn) >= f.cfg.LogicalPages {
		return nand.InvalidPPN
	}
	return f.l2p.get(lpn)
}

// checkLPN validates a logical page number.
func (f *FTL) checkLPN(lpn LPN) error {
	if lpn < 0 || int64(lpn) >= f.cfg.LogicalPages {
		return fmt.Errorf("%w: %d (capacity %d)", ErrLPNRange, lpn, f.cfg.LogicalPages)
	}
	return nil
}

// group returns the mapping-table group (flash map page index) an LPN
// belongs to.
func (f *FTL) group(lpn LPN) int64 {
	return int64(lpn) / mapEntriesPerPage(f.chip.Config().PageSize)
}

// Read copies the current committed content of a logical page into buf.
// Reading an unmapped page yields zeros without touching flash, as real
// SSDs do for trimmed ranges.
func (f *FTL) Read(lpn LPN, buf []byte) error {
	if err := f.checkLPN(lpn); err != nil {
		return err
	}
	ppn := f.l2p.get(lpn)
	if ppn == nand.InvalidPPN {
		clear(buf[:min(len(buf), f.PageSize())])
		return nil
	}
	return f.chip.ReadPage(ppn, buf)
}

// ReadPPN reads a specific physical page (used by the transactional
// layer for uncommitted versions).
func (f *FTL) ReadPPN(ppn nand.PPN, buf []byte) error {
	return f.chip.ReadPage(ppn, buf)
}

// Write performs an ordinary copy-on-write page update: program the new
// content at the frontier and remap the logical page to it.
func (f *FTL) Write(lpn LPN, data []byte) error {
	ppn, err := f.WriteRaw(lpn, data)
	if err != nil {
		return err
	}
	return f.Map(lpn, ppn)
}

// WriteRaw programs data into a fresh physical page tagged with lpn but
// does not update the L2P table. The caller owns the returned PPN until
// it either Maps it or Invalidates it. This is the primitive behind the
// X-FTL write(t,p) command: the old committed version must stay mapped.
func (f *FTL) WriteRaw(lpn LPN, data []byte) (nand.PPN, error) {
	return f.writeData(lpn, data, dataStateBase, 0)
}

// WriteRawTx is WriteRaw for a transactional copy-on-write page: the
// spare-area record carries the transaction id and the in-flight state,
// so a full-device scan can tell a committed version from one that was
// mid-transaction when power failed.
func (f *FTL) WriteRawTx(lpn LPN, data []byte, tid uint64) (nand.PPN, error) {
	return f.writeData(lpn, data, dataStateTx, tid)
}

func (f *FTL) writeData(lpn LPN, data []byte, state uint8, tid uint64) (nand.PPN, error) {
	if err := f.checkLPN(lpn); err != nil {
		return nand.InvalidPPN, err
	}
	oob := f.dataOOB(lpn, state, tid)
	ppn, err := f.programData(data, oob[:], nand.InvalidPPN)
	if err != nil {
		return nand.InvalidPPN, err
	}
	f.rmap[ppn] = lpn
	return ppn, nil
}

// maxProgramRetries bounds how many fresh pages one logical program
// tries after ErrProgramFail before giving up.
const maxProgramRetries = 5

// maxRetireDepth bounds cascading retirements: a retirement whose own
// evacuation or table writes hit further failing blocks.
const maxRetireDepth = 3

// programData allocates a frontier page and programs data plus its
// spare-area record into it. On a program status fail it retires the
// failing block to the bad-block table and retries on a fresh page,
// exactly the remap-and-retire firmware response to NAND program
// failures. A transient interface fault instead retries the SAME page
// in place (the cell was never touched, so the frontier unwinds one
// step and reissues) — transients must not burn blocks or leak free
// pages. A valid src selects the GC datapath: a copy-back program of
// src's page and spare record, with no host transfer.
func (f *FTL) programData(data, oob []byte, src nand.PPN) (nand.PPN, error) {
	trans := 0
	for attempt := 0; ; attempt++ {
		ppn, err := f.allocPage()
		if err != nil {
			return nand.InvalidPPN, err
		}
		if src != nand.InvalidPPN {
			err = f.chip.ProgramCopyBack(ppn, src)
		} else {
			err = f.program(ppn, data, oob)
		}
		if err == nil {
			return ppn, nil
		}
		if errors.Is(err, nand.ErrTransient) {
			trans++
			if trans > maxTransientRetries {
				return nand.InvalidPPN, err
			}
			f.unwindFrontier(ppn)
			attempt--
			continue
		}
		if !errors.Is(err, nand.ErrProgramFail) || attempt >= maxProgramRetries {
			return nand.InvalidPPN, err
		}
		if rerr := f.retireDataBlock(f.chip.BlockOf(ppn)); rerr != nil {
			return nand.InvalidPPN, rerr
		}
	}
}

// retireDataBlock takes a failing data block out of circulation: the
// allocator, victim picker and frontier never touch it again, its
// still-live pages (programmed before the failure; they stay readable)
// are evacuated to fresh locations, and the bad-block table is
// persisted. The failed page itself was already consumed by the chip.
func (f *FTL) retireDataBlock(blk nand.BlockNum) error {
	if f.bad[blk] {
		return nil
	}
	if f.retireDepth >= maxRetireDepth {
		return fmt.Errorf("ftl: cascading block failures while retiring block %d: %w", blk, nand.ErrProgramFail)
	}
	f.retireDepth++
	defer func() { f.retireDepth-- }()
	f.bad[blk] = true
	delete(f.skipped, blk)
	if f.haveCur && f.cur == blk {
		f.haveCur = false // abandon the frontier; its free pages are lost
	}
	f.removeFreeBlock(blk)
	for pi := 0; pi < f.chip.Config().PagesPerBlock; pi++ {
		if _, err := f.evacuate(f.chip.PPNOf(blk, pi)); err != nil {
			return err
		}
	}
	if err := f.settleHeld(); err != nil {
		return err
	}
	if f.stats != nil {
		f.stats.RetiredBlocks.Add(1)
	}
	return f.persistBBT()
}

// persistBBT stores the bad-block table and ring membership next to the
// mapping image. It is written immediately at every retirement — on a
// real device a lost BBT means re-programming known-bad blocks after
// reboot — and verified (one charged read per page) during Restart.
func (f *FTL) persistBBT() error {
	return f.WriteMetaSlotData("bbt", f.serializeBBT(), 1)
}

// removeFreeBlock drops blk from the free pool if present.
func (f *FTL) removeFreeBlock(blk nand.BlockNum) {
	for i, fb := range f.freeBlocks {
		if fb == blk {
			f.freeBlocks = append(f.freeBlocks[:i], f.freeBlocks[i+1:]...)
			return
		}
	}
}

// BadBlockCount reports how many blocks the FTL has retired.
func (f *FTL) BadBlockCount() int { return len(f.bad) }

// program pads short data to a full page and programs it with its
// spare-area record. Nil data is a blank program: it reads back as
// zeros and costs the chip no copy.
func (f *FTL) program(ppn nand.PPN, data, oob []byte) error {
	ps := f.PageSize()
	if data == nil || len(data) == ps {
		return f.chip.ProgramPageOOB(ppn, data, oob)
	}
	if len(data) > ps {
		return fmt.Errorf("ftl: data longer than page (%d > %d)", len(data), ps)
	}
	padded := make([]byte, ps)
	copy(padded, data)
	return f.chip.ProgramPageOOB(ppn, padded, oob)
}

// Map installs ppn as the committed version of lpn, retiring any prior
// mapping. If the prior physical page is still referenced by the
// flash-resident mapping image it stays valid on the chip (it must
// survive a power cut until the next barrier); otherwise it is
// invalidated immediately.
func (f *FTL) Map(lpn LPN, ppn nand.PPN) error {
	if err := f.checkLPN(lpn); err != nil {
		return err
	}
	old := f.l2p.get(lpn)
	if old == ppn {
		return nil
	}
	f.setL2P(lpn, ppn)
	if ppn != nand.InvalidPPN {
		f.rmap[ppn] = lpn
	}
	if old != nand.InvalidPPN {
		f.retire(lpn, old)
	}
	return nil
}

// Unmap removes the mapping for a logical page (the trim command).
func (f *FTL) Unmap(lpn LPN) error {
	if err := f.checkLPN(lpn); err != nil {
		return err
	}
	old := f.l2p.get(lpn)
	if old == nand.InvalidPPN {
		return nil
	}
	f.setL2P(lpn, nand.InvalidPPN)
	f.retire(lpn, old)
	return nil
}

// setL2P is the one writer of the volatile table outside recovery: it
// maps lpn to ppn and sets the dirty bit of the entry's line.
func (f *FTL) setL2P(lpn LPN, ppn nand.PPN) {
	f.l2p.set(lpn, ppn)
	line := int64(lpn) % mapEntriesPerPage(f.PageSize()) / (mapLine / 4)
	f.groupLines(f.group(lpn))[line/64] |= 1 << (line % 64)
}

// groupLines returns map group g's words of the dirty-line mask.
func (f *FTL) groupLines(g int64) []uint64 {
	w := int64(len(f.dirty) / len(f.groupSlots))
	return f.dirty[g*w : (g+1)*w]
}

// retire handles an old physical page that just lost its volatile
// mapping. If the persistent image still points at it, invalidation is
// deferred to the next barrier (or to GC); otherwise the chip page is
// invalidated now.
func (f *FTL) retire(lpn LPN, old nand.PPN) {
	if f.persisted.get(lpn) == old {
		return // still needed for crash recovery until next barrier
	}
	if f.hook != nil && f.hook.Live(old) {
		return // transactional layer still references it
	}
	_ = f.discard(old)
}

// discard invalidates a data page nothing references any more and gives
// its payload back to the chip at once: no read of a superseded data
// page is ever issued, and the recovery scan wants only its spare
// record. Every data-page invalidation goes through here. Meta pages
// use plain Invalidate and keep their bytes until erase, because the
// scan arbitrates between superseded slot chains by their payload CRC.
func (f *FTL) discard(ppn nand.PPN) error {
	f.rmap[ppn] = -1
	return f.chip.Discard(ppn)
}

// InvalidatePPN abandons a raw physical page that was produced by
// WriteRaw and will never be mapped (the X-FTL abort path).
func (f *FTL) InvalidatePPN(ppn nand.PPN) error {
	if ppn == nand.InvalidPPN {
		return nil
	}
	lpn := f.rmap[ppn]
	if lpn >= 0 && (f.l2p.get(lpn) == ppn || f.persisted.get(lpn) == ppn) {
		return fmt.Errorf("ftl: refusing to invalidate mapped ppn %d", ppn)
	}
	return f.discard(ppn)
}

// ReleaseOrphan invalidates a physical page whose last reference (a
// snapshot pin) was just dropped. Unlike InvalidatePPN it tolerates
// every state a released version can legally be in: still reachable
// through the volatile or persisted L2P, still protected by the hook
// (an X-L2P image row), already relocated or erased by GC — all of
// those are silently left for the normal reclamation paths.
func (f *FTL) ReleaseOrphan(ppn nand.PPN) {
	if ppn == nand.InvalidPPN || ppn < 0 || int(ppn) >= len(f.rmap) {
		return
	}
	if st, err := f.chip.State(ppn); err != nil || st != nand.PageValid {
		return
	}
	if f.isLive(ppn) {
		return
	}
	_ = f.discard(ppn)
}

// allocPage returns the next free physical page at the write frontier,
// running garbage collection first if the free-block pool is low. While
// units are quarantined, allocation steers away from them: frontier
// pages striped onto a sick unit are skipped (left free, accounted in
// f.skipped so victim selection still converges). The quarantine cap
// (at least one healthy unit) guarantees every block yields pages, so
// the steering loop terminates.
func (f *FTL) allocPage() (nand.PPN, error) {
	for {
		if !f.haveCur || f.curPage >= f.chip.Config().PagesPerBlock {
			// While GC itself is copying pages it must not recurse into
			// another collection: the low-water reserve of free blocks
			// absorbs one victim's worth of live pages.
			if !f.inGC {
				if err := f.ensureFreeBlocks(); err != nil {
					return nand.InvalidPPN, err
				}
			}
			// GC relocations may have installed (and partially filled) a
			// fresh frontier while collecting; replacing it now would
			// abandon a nearly empty block. Take a new one only if the
			// frontier is still exhausted.
			if !f.haveCur || f.curPage >= f.chip.Config().PagesPerBlock {
				if len(f.freeBlocks) == 0 {
					if len(f.bad) > f.cfg.SpareBlocks {
						return nand.InvalidPPN, f.markWornOut()
					}
					return nand.InvalidPPN, ErrDeviceFull
				}
				f.cur = f.freeBlocks[0]
				f.freeBlocks = f.freeBlocks[1:]
				f.curPage = 0
				f.haveCur = true
			}
		}
		ppn := f.chip.PPNOf(f.cur, f.curPage)
		f.curPage++
		if f.quarCount > 0 && f.UnitQuarantined(f.chip.Unit(ppn)) {
			f.skipped[f.cur]++
			continue
		}
		return ppn, nil
	}
}

// unwindFrontier returns the page just handed out by allocPage to the
// frontier, used when its program failed with a transient interface
// fault and will be retried in place. Without the unwind, every
// transient retry would leak one permanently free page behind the
// frontier and (under an error storm) wedge GC victim selection.
func (f *FTL) unwindFrontier(ppn nand.PPN) {
	if f.haveCur && f.curPage > 0 && f.chip.PPNOf(f.cur, f.curPage-1) == ppn {
		f.curPage--
	}
}

// maxTransientRetries bounds in-place retries of a firmware-internal
// NAND operation that keeps failing with nand.ErrTransient. It must
// exceed any FaultModel.MaxTransientFails used in testing so a transient
// burst always clears before the budget does.
const maxTransientRetries = 12

// eraseBlock erases a block, retrying transient interface faults in
// place; real failures (ErrEraseFail, power loss) pass through.
func (f *FTL) eraseBlock(blk nand.BlockNum) error {
	var err error
	for attempt := 0; attempt <= maxTransientRetries; attempt++ {
		err = f.chip.EraseBlock(blk)
		if err == nil || !errors.Is(err, nand.ErrTransient) {
			return err
		}
	}
	return err
}

// ensureFreeBlocks runs GC until the pool is above the low-water mark.
// A progress guard turns a pathological no-progress loop (every victim
// fully live) into ErrDeviceFull instead of a livelock.
func (f *FTL) ensureFreeBlocks() error {
	stalled := 0
	for len(f.freeBlocks) <= GCLowWater {
		before := len(f.freeBlocks)
		if err := f.collectOnce(); err != nil {
			return err
		}
		if len(f.freeBlocks) <= before {
			stalled++
			if stalled > 2*f.chip.Config().Blocks {
				return fmt.Errorf("%w: GC cannot reclaim space (all victims live)", ErrDeviceFull)
			}
		} else {
			stalled = 0
		}
	}
	return nil
}

// collectOnce picks the data block with the fewest valid pages (greedy),
// evacuates its pages, settles the map groups that held, and erases it.
func (f *FTL) collectOnce() error {
	victim := f.pickVictim()
	if victim < 0 {
		return ErrDeviceFull
	}
	if f.stats != nil {
		f.stats.GCRuns.Add(1)
	}
	f.gcVictims++
	f.inGC = true
	defer func() { f.inGC = false }()
	// Everything the episode does — copies, map flushes, the erase — is
	// GC work, whatever command (or idle-path allocation) triggered it.
	defer f.chip.SetOrigin(f.chip.SetOrigin(trace.OGC))
	if f.tracer != nil {
		gcStart := f.tracer.Now()
		copiedBefore := f.gcValidCopied
		defer func() {
			f.tracer.Record(trace.Event{
				Layer: trace.LFTL, Kind: trace.KGC,
				Start: gcStart, Dur: f.tracer.Now() - gcStart,
				Addr: int64(victim), Aux: f.gcValidCopied - copiedBefore,
				Sess: f.chip.Session(), Origin: trace.OGC,
			})
		}()
	}

	for pi := 0; pi < f.chip.Config().PagesPerBlock; pi++ {
		copied, err := f.evacuate(f.chip.PPNOf(victim, pi))
		if err != nil {
			return err
		}
		if copied {
			f.gcValidCopied++
		}
	}
	if err := f.settleHeld(); err != nil {
		return err
	}
	if err := f.eraseBlock(victim); err != nil {
		if errors.Is(err, nand.ErrEraseFail) {
			// The victim would not erase: retire it to the bad-block
			// table instead of returning it to the free pool. Its pages
			// are all invalid by now, so nothing needs evacuation.
			f.bad[victim] = true
			delete(f.skipped, victim)
			if f.stats != nil {
				f.stats.RetiredBlocks.Add(1)
			}
			return f.persistBBT()
		}
		return err
	}
	delete(f.skipped, victim)
	f.freeBlocks = append(f.freeBlocks, victim)
	return nil
}

// sortedKeys returns a map's keys in ascending order, so flush and
// recovery sequences (and therefore fault injection) are deterministic.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// pickVictim chooses the greedy GC victim among fully written data
// blocks, returning -1 if none exists. The chip's per-block valid
// counter is the greedy key; deferred-invalid pages inflate it slightly
// but are reclaimed for free when the block is eventually collected.
func (f *FTL) pickVictim() nand.BlockNum {
	chipCfg := f.chip.Config()
	dataBlocks := chipCfg.Blocks - MetaBlocks
	best := nand.BlockNum(-1)
	bestValid := chipCfg.PagesPerBlock + 1
	for b := 0; b < dataBlocks; b++ {
		blk := nand.BlockNum(b)
		if f.haveCur && blk == f.cur || blk == f.draining {
			continue
		}
		if f.bad[blk] || f.metaSet[blk] {
			continue // retired, or drafted into the metadata ring
		}
		freePages, _ := f.chip.FreePages(blk)
		if freePages > 0 && freePages != f.skipped[blk] {
			continue // erased or only partially written blocks are not victims
		}
		valid, _ := f.chip.ValidPages(blk)
		if valid < bestValid {
			best, bestValid = blk, valid
			if valid == 0 {
				break
			}
		}
	}
	return best
}

func (f *FTL) isFree(blk nand.BlockNum) bool {
	for _, fb := range f.freeBlocks {
		if fb == blk {
			return true
		}
	}
	return false
}

// isLive implements the paper's liveness rule: a page is live if the
// L2P table (volatile or flash-resident image) or the transactional
// layer's table references it.
func (f *FTL) isLive(ppn nand.PPN) bool {
	if lpn := f.rmap[ppn]; lpn >= 0 {
		if f.l2p.get(lpn) == ppn || f.persisted.get(lpn) == ppn {
			return true
		}
	}
	return f.hook != nil && f.hook.Live(ppn)
}

// relocate copies one live page to the write frontier and fixes every
// table that referenced it. The copy is a NAND copy-back: the
// destination is programmed from the source cell, page and spare-area
// record verbatim — the sequence number is version identity,
// so the relocated copy must not outrank (or fall behind) the version it
// is a byte-for-byte copy of in a later recovery scan. The source cell
// stays valid until the program is done: it can nest a retirement (a
// failed program retires its block, which relocates that block's pages)
// but no erase of the source's block — GC does not re-enter, and a block
// being retired or drained is never a GC victim. When the flash-resident
// mapping image pointed at the old location, the old page stays valid
// and its group is held for settleHeld, so a power cut before the group
// is persisted recovers a page that was never invalidated, let alone
// erased.
func (f *FTL) relocate(old nand.PPN) error {
	// Copy-back reads retry transient interface faults in place; the
	// queue's retry plane only covers host commands, not firmware-
	// internal reads.
	var err error
	for attempt := 0; ; attempt++ {
		err = f.chip.ReadCopyBack(old)
		if err == nil || !errors.Is(err, nand.ErrTransient) || attempt >= maxTransientRetries {
			break
		}
	}
	if err != nil {
		return err
	}
	dst, err := f.programData(nil, nil, old)
	if err != nil {
		return err
	}
	lpn := f.rmap[old]
	f.rmap[dst] = lpn
	if lpn >= 0 && f.l2p.get(lpn) == old {
		f.setL2P(lpn, dst)
	}
	if f.hook != nil {
		f.hook.Relocated(old, dst)
	}
	if lpn >= 0 && f.persisted.get(lpn) == old {
		f.held = append(f.held, f.group(lpn))
		return nil
	}
	return f.discard(old)
}

// evacuate empties one valid page of a block being collected, retired
// or drained, and reports whether it copied the page. Garbage is
// invalidated; a page only the flash-resident image still points at is
// not copied but its group is held; any other live page is relocated.
func (f *FTL) evacuate(ppn nand.PPN) (bool, error) {
	if st, err := f.chip.State(ppn); err != nil || st != nand.PageValid {
		return false, err
	}
	lpn := f.rmap[ppn]
	if lpn >= 0 && f.l2p.get(lpn) == ppn || f.hook != nil && f.hook.Live(ppn) {
		return true, f.relocate(ppn)
	}
	if lpn >= 0 && f.persisted.get(lpn) == ppn {
		f.held = append(f.held, f.group(lpn))
		return false, nil
	}
	return false, f.discard(ppn)
}

// settleHeld persists every held map group once, in ascending order.
// Each group's sync invalidates the sources its flash-resident image
// stopped pointing at, so only then may their block be erased — and the
// chip refuses an erase over a valid page.
func (f *FTL) settleHeld() error {
	slices.Sort(f.held)
	f.held = slices.Compact(f.held)
	for _, g := range f.held {
		if err := f.persistGroup(g); err != nil {
			return err
		}
	}
	f.held = f.held[:0]
	return nil
}

// mapPages is how many flash pages an L2P table of n entries occupies.
func mapPages(n int64, pageSize int) int {
	per := mapEntriesPerPage(pageSize)
	return int((n + per - 1) / per)
}

// fullMapPages is how many flash pages the whole L2P table occupies.
func (f *FTL) fullMapPages() int { return len(f.groupSlots) }

// syncGroup reconciles one map group's persistent image with the
// volatile table, resolving deferred invalidations, and clears the
// group's dirty bits. A flush usually changes a handful of a page's
// entries, and only a line whose bit is set can differ, so only those
// lines are decoded.
func (f *FTL) syncGroup(g int64) {
	per := mapEntriesPerPage(f.PageSize())
	first, end := LPN(g*per), LPN((g+1)*per)
	mask := f.groupLines(g)
	for i, w := range mask {
		mask[i] = 0
		for ; w != 0; w &= w - 1 {
			lo := first + LPN((i*64+bits.TrailingZeros64(w))*mapLine/4)
			for lpn := lo; lpn < min(lo+mapLine/4, end); lpn++ {
				old, cur := f.persisted.get(lpn), f.l2p.get(lpn)
				if old == cur {
					continue
				}
				f.persisted.set(lpn, cur)
				if old != nand.InvalidPPN && f.rmap[old] == lpn {
					// The page lost its last L2P reference; unless the
					// transactional layer holds it, it is garbage now.
					if f.hook == nil || !f.hook.Live(old) {
						_ = f.discard(old)
					}
				}
			}
		}
	}
}

// Barrier persists the mapping table to the metadata region and
// resolves deferred invalidations, implementing the write barrier /
// flush-cache semantics the paper describes for OpenSSD ("a write
// barrier command stores the mapping table as well as data pages
// persistently", §6.3.4). By default the whole table image is stored,
// which is what makes fsync so expensive on the baseline firmware.
func (f *FTL) Barrier() error {
	// Each dirty group is stored copy-on-write: the new group image is
	// programmed first and its pointer flips only on success, so a power
	// cut or program failure mid-barrier leaves the previous image — and
	// its shadow — both current. Clean groups keep their existing flash
	// images; the pad pages model the firmware's fixed-size full-table
	// store without carrying content (none under IncrementalBarrier).
	dirty, err := f.FlushDirtyGroups()
	pad := f.fullMapPages() - dirty
	if err != nil || dirty == 0 || pad <= 0 || f.cfg.IncrementalBarrier {
		return err
	}
	return f.WriteMetaSlot("l2pmap-pad", pad)
}

// FlushDirtyGroups persists only the map groups dirtied since the last
// flush (one meta page each). This is the lightweight propagation the
// X-FTL commit path uses after folding committed entries into L2P: the
// full-table store of a barrier is not needed because the X-L2P image
// already makes the transaction durable.
func (f *FTL) FlushDirtyGroups() (int, error) {
	n := 0
	for g := range int64(len(f.groupSlots)) {
		if !slices.ContainsFunc(f.groupLines(g), func(w uint64) bool { return w != 0 }) {
			continue
		}
		if err := f.persistGroup(g); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// persistGroup makes one map group durable: the new group image — the
// volatile table's own page, checksummed in its spare record — is
// programmed first, and only then is the in-memory shadow reconciled and
// the group pointer flipped — modeling the atomic pointer flip of a
// copy-on-write firmware, so a power cut or program failure mid-flush
// leaves the previous group image current.
func (f *FTL) persistGroup(g int64) error {
	page := f.l2p.page(g) // a whole page: payLen is metaBuf's length
	tag := metaTag{state: metaStateGroup, group: int32(g), seq: f.nextSeq(), payLen: uint32(len(f.metaBuf))}
	ppn, err := f.metaProgram(tag, page, nand.InvalidPPN)
	if err != nil {
		return err
	}
	f.syncGroup(g)
	if old := f.groupSlots[g]; old != nand.InvalidPPN {
		f.untag(old)
		_ = f.chip.Invalidate(old)
	}
	f.groupSlots[g] = ppn
	return nil
}

// WriteMetaSlot persists an upper-layer metadata object as a content-
// free chain of meta pages under a named slot (cost-model padding, e.g.
// the fixed-size barrier store). Passing pages <= 0 drops the slot.
func (f *FTL) WriteMetaSlot(name string, pages int) error {
	if pages > 0 {
		return f.writeMetaSlot(f.slotID(name), nil, pages)
	}
	id, ok := f.slotIDs[name]
	if !ok {
		return nil
	}
	for _, old := range f.metaSlots[id] {
		f.untag(old)
		_ = f.chip.Invalidate(old)
	}
	f.metaSlots[id], f.metaData[id] = nil, nil
	return nil
}

// WriteMetaSlotData persists a content-bearing metadata object (the
// X-L2P table image, the bad-block table, the committed-transaction
// log) as a chain of checksummed meta pages. The chain is padded to
// minPages when the payload is smaller, preserving the cost model of
// fixed-size table stores. The payload is recoverable by MetaSlotData
// after a crash, from either recovery path.
func (f *FTL) WriteMetaSlotData(name string, payload []byte, minPages int) error {
	ps := f.PageSize()
	pages := max((len(payload)+ps-1)/ps, minPages, 1)
	mirror := append(f.spareData[:0], payload...)
	f.spareData = nil
	if mirror == nil {
		mirror = []byte{} // empty is still content-bearing; nil is a pad chain
	}
	return f.writeMetaSlot(f.slotID(name), mirror, pages)
}

// writeMetaSlot programs a slot's new chain and then flips the slot
// pointer, invalidating the previous chain — a crash in between leaves
// the old chain pointed-at and intact, while the half-written new chain
// is garbage the scan path can identify (incomplete, lower sequence).
// The whole chain shares a contiguous sequence range so any complete
// copy can be ranked by its base sequence number. A non-nil payload is
// the caller's to give away: it becomes the slot's mirror. The chain is
// built in the spare, so the one the slot points at stays whole for a
// re-home until the flip.
func (f *FTL) writeMetaSlot(id uint16, payload []byte, pages int) error {
	ps := f.PageSize()
	baseSeq := f.seq
	f.seq += uint64(pages)
	chain := f.spareChain[:0]
	f.spareChain = nil
	for i := 0; i < pages; i++ {
		var piece []byte
		if lo := i * ps; lo < len(payload) {
			piece = payload[lo:min(lo+ps, len(payload))]
		}
		tag := metaTag{
			state: metaStateChain, slot: id,
			idx: uint16(i), length: uint16(pages),
			seq: baseSeq + uint64(i), payLen: uint32(len(piece)),
		}
		ppn, err := f.metaProgram(tag, piece, nand.InvalidPPN)
		if err != nil {
			return err
		}
		chain = append(chain, ppn)
	}
	prev := f.metaSlots[id]
	for _, old := range prev {
		f.untag(old)
		_ = f.chip.Invalidate(old)
	}
	f.spareChain, f.metaSlots[id] = prev, chain
	if payload != nil {
		f.spareData = f.metaData[id]
	}
	f.metaData[id] = payload
	return nil
}

// MetaSlotData returns a copy of a content-bearing slot's payload, or
// nil when the slot does not exist or was written content-free.
func (f *FTL) MetaSlotData(name string) []byte {
	id, ok := f.slotIDs[name]
	if !ok || f.metaData[id] == nil {
		return nil
	}
	p := f.metaData[id]
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// metaProgram programs one page (content plus checksummed spare record)
// in the metadata ring, records tag at the page's place in the ring
// index and returns its address, advancing to the next ring block as
// the frontier fills. The page is src's, copied back with
// its spare record, when src is a valid PPN; else payload: a whole page
// as it stands (a map group's page of the table), a shorter one
// zero-padded in metaBuf, an empty one a content-free pad, programmed
// blank.
//
// metaProgram is re-entrant — advancing the frontier re-homes pointed
// pages, and retiring a failed ring block re-homes and persists the BBT,
// all through nested metaProgram calls that render into the same
// metaBuf. The page is therefore rendered inside the loop, after any
// advance and immediately before its program; payload must not alias
// metaBuf.
func (f *FTL) metaProgram(tag metaTag, payload []byte, src nand.PPN) (nand.PPN, error) {
	if f.chip.Origin() == trace.OHost {
		// Host-triggered metadata maintenance (map-group flushes on a
		// barrier, BBT persists) attributes as meta work; inside a GC,
		// commit or recovery episode the outer origin already explains
		// the write, so keep it.
		defer f.chip.SetOrigin(f.chip.SetOrigin(trace.OMeta))
	}
	trans := 0
	for attempt := 0; ; attempt++ {
		// Loop, not if: re-homing during an advance can fill the fresh
		// frontier completely, requiring another advance.
		for f.metaPage >= len(f.metaTags[f.metaCur]) { // a tag per page
			if err := f.advanceMetaFrontier(); err != nil {
				return nand.InvalidPPN, err
			}
		}
		pos, pi := f.metaCur, f.metaPage
		ppn := f.chip.PPNOf(f.metaBlocks[pos], pi)
		f.metaPage++
		var err error
		if src != nand.InvalidPPN {
			err = f.chip.ProgramCopyBack(ppn, src)
		} else {
			page, crc := payload, f.zeroCRC
			if len(page) > 0 {
				if len(page) < len(f.metaBuf) {
					page = f.metaBuf
					clear(page[copy(page, payload):])
				}
				crc = crc32.ChecksumIEEE(page)
			}
			oob := metaOOB(tag, crc)
			err = f.chip.ProgramPageOOB(ppn, page, oob[:])
		}
		if err == nil {
			// Stored whole, then marked live in place: marking the copy
			// first makes the wide store wait on the byte store.
			t := &f.metaTags[pos][pi]
			*t = tag
			t.live = true
			return ppn, nil
		}
		if errors.Is(err, nand.ErrTransient) {
			// Transient interface fault: the cell was never touched, so
			// the ring frontier retries the same page in place. Skipping
			// forward instead would break the ring's sequential-program
			// invariant.
			trans++
			if trans > maxTransientRetries {
				return nand.InvalidPPN, err
			}
			f.metaPage--
			attempt--
			continue
		}
		if !errors.Is(err, nand.ErrProgramFail) || attempt >= maxProgramRetries {
			return nand.InvalidPPN, err
		}
		if rerr := f.retireCurrentMetaBlock(); rerr != nil {
			return nand.InvalidPPN, rerr
		}
	}
}

// advanceMetaFrontier moves the ring frontier to the next block and
// restores the ring invariant: the block after the new frontier holds
// no live (pointed-at) meta pages. The invariant means the block
// entered here carries only superseded garbage — it can be invalidated
// and erased without reprogramming anything, so a power cut at any
// point in the advance loses nothing.
func (f *FTL) advanceMetaFrontier() error {
	next := (f.metaCur + 1) % len(f.metaBlocks)
	blk := f.metaBlocks[next]
	ppb := f.chip.Config().PagesPerBlock
	if free, _ := f.chip.FreePages(blk); free < ppb {
		for pi := 0; pi < ppb; pi++ {
			ppn := f.chip.PPNOf(blk, pi)
			if st, _ := f.chip.State(ppn); st == nand.PageValid {
				_ = f.chip.Invalidate(ppn)
			}
		}
		clear(f.metaTags[next])
		switch err := f.eraseBlock(blk); {
		case err == nil:
			f.metaCur = next
			f.metaPage = 0
		case errors.Is(err, nand.ErrEraseFail):
			// substituteMetaBlock repositions the frontier itself (and
			// may consume pages of the fresh block persisting the BBT).
			if serr := f.substituteMetaBlock(next); serr != nil {
				return serr
			}
		default:
			return err
		}
	} else {
		f.metaCur = next
		f.metaPage = 0
	}
	return f.cleanNextMetaBlock()
}

// cleanNextMetaBlock re-homes every live meta page out of the ring
// block that will be erased next, re-establishing the advance
// invariant. A live page is programmed again from its own cell, page and
// spare record (same sequence number: the copy is the same version), the
// pointer flips to the copy, and the original is invalidated. At most one
// block's worth of pages is moved and the frontier block is fresh, so the
// copies always fit. A cut mid-way is harmless: every page is either
// still pointed at its old home or already pointed at its copy, and
// Restart finishes the job.
func (f *FTL) cleanNextMetaBlock() error {
	next := (f.metaCur + 1) % len(f.metaBlocks)
	return f.rehomePointed(f.metaBlocks[next], f.metaTags[next])
}

// rehomePointed moves the live meta pages of blk, as its tags say, to
// the current frontier, in PPN order. Tagged pages that are no
// longer pointed at (their slot was rewritten mid-crash, or their chain
// is still being written) are invalidated as garbage instead.
//
// The copy is the modelled firmware's reprogram of the page from its RAM
// mirror — the table or the slot's payload — which is charged like any
// meta program and no read. The simulator programs it from the cell
// instead, which holds the same bytes and record: pointers only flip
// after successful programs, and a mount adopts what the pointed pages
// hold (TestPointedMetaPagesMatchTheirMirrors).
func (f *FTL) rehomePointed(blk nand.BlockNum, tags []metaTag) error {
	for pi := range tags {
		tag := tags[pi]
		if !tag.live {
			continue
		}
		old := f.chip.PPNOf(blk, pi)
		if p := f.pointerTo(tag); p == nil || *p != old {
			tags[pi].live = false
			_ = f.chip.Invalidate(old)
			continue
		}
		moved, err := f.metaProgram(tag, nil, old)
		if err != nil {
			return err
		}
		// A program fail mid-copy retires the frontier block, and the
		// retirement persists the bad-block table: when the page being
		// moved is the table's own, it is superseded and the copy is
		// garbage.
		if p := f.pointerTo(tag); p != nil && *p == old {
			*p = moved
		} else {
			f.untag(moved)
			_ = f.chip.Invalidate(moved)
		}
		tags[pi].live = false
		_ = f.chip.Invalidate(old)
	}
	return nil
}

// pointerTo returns the entry of the group or slot tables that points
// at the current version of tag's page, nil when the slot has no page
// at tag's index.
func (f *FTL) pointerTo(tag metaTag) *nand.PPN {
	if tag.state == metaStateGroup {
		return &f.groupSlots[tag.group]
	}
	if chain := f.metaSlots[tag.slot]; int(tag.idx) < len(chain) {
		return &chain[tag.idx]
	}
	return nil
}

// tagOf returns a meta page's tag, found by its block's position in the
// ring and its page in the block; nil for a page of a block retired from
// the ring since.
func (f *FTL) tagOf(ppn nand.PPN) *metaTag {
	blk := f.chip.BlockOf(ppn)
	for pos, b := range f.metaBlocks {
		if b == blk {
			return &f.metaTags[pos][ppn-f.chip.PPNOf(blk, 0)]
		}
	}
	return nil
}

// untag clears the tag of a superseded meta page.
func (f *FTL) untag(ppn nand.PPN) {
	if t := f.tagOf(ppn); t != nil {
		t.live = false
	}
}

// retireCurrentMetaBlock handles a program failure in the metadata
// ring: the current ring block is retired, a replacement is drafted
// from the data free pool, and the retired block's live meta pages are
// re-homed into it. The retired block's tags leave the ring with it, so
// they are taken first.
func (f *FTL) retireCurrentMetaBlock() error {
	pos := f.metaCur
	blk, tags := f.metaBlocks[pos], f.metaTags[pos]
	if err := f.substituteMetaBlock(pos); err != nil {
		return err
	}
	return f.rehomePointed(blk, tags)
}

// substituteMetaBlock retires the ring block at idx, installs a fresh
// block drafted from the data free pool in its place, with tags of its
// own, and makes it the ring frontier. The bad-block table is persisted
// immediately.
func (f *FTL) substituteMetaBlock(idx int) error {
	blk := f.metaBlocks[idx]
	if f.retireDepth >= maxRetireDepth {
		return fmt.Errorf("ftl: cascading failures while retiring meta block %d: %w", blk, nand.ErrProgramFail)
	}
	f.retireDepth++
	defer func() { f.retireDepth-- }()
	if len(f.freeBlocks) == 0 {
		return fmt.Errorf("no spare block to replace failed meta block %d: %w", blk, f.markWornOut())
	}
	f.bad[blk] = true
	delete(f.metaSet, blk)
	nb := f.freeBlocks[0]
	f.freeBlocks = f.freeBlocks[1:]
	f.metaBlocks[idx] = nb
	f.metaSet[nb] = true
	f.metaTags[idx] = make([]metaTag, len(f.metaTags[0]))
	f.metaCur = idx
	f.metaPage = 0
	if f.stats != nil {
		f.stats.RetiredBlocks.Add(1)
	}
	return f.persistBBT()
}

// PowerCut simulates sudden power loss: all volatile mapping state is
// dropped. Restart rebuilds it from what flash actually holds.
func (f *FTL) PowerCut() {
	f.powerFailed = true
}

// GCStats reports cumulative GC observability counters: how many victim
// blocks were collected and the average fraction of pages that were
// still valid in them (the paper's "GC validity ratio").
func (f *FTL) GCStats() (victims int64, avgValidity float64) {
	if f.gcVictims == 0 {
		return 0, 0
	}
	ppb := float64(f.chip.Config().PagesPerBlock)
	return f.gcVictims, float64(f.gcValidCopied) / (float64(f.gcVictims) * ppb)
}

// GCCopiedPages reports how many still-valid pages GC has relocated
// out of victim blocks (the copy-backs behind write amplification).
func (f *FTL) GCCopiedPages() int64 { return f.gcValidCopied }

// ResetGCStats zeroes the GC observability counters.
func (f *FTL) ResetGCStats() { f.gcVictims, f.gcValidCopied = 0, 0 }
