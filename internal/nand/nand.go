// Package nand models an array of NAND flash memory chips with the
// geometry and timing of the Samsung K9LCG08U1M parts installed on the
// OpenSSD board used in the paper: MLC NAND with 8 KB pages and 128
// pages per block. The model enforces the two NAND invariants that make
// copy-on-write mandatory for the layers above:
//
//   - a page can be programmed only once after its block is erased, and
//   - erasure happens at block granularity only.
//
// Every operation advances the simulated clock by the corresponding
// latency, so elapsed simulated time reflects real device cost.
package nand

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// PPN is a physical page number across the whole chip array.
type PPN int64

// InvalidPPN marks an unassigned physical page slot.
const InvalidPPN PPN = -1

// BlockNum identifies one erase block.
type BlockNum int32

// PageState describes the lifecycle of a physical page.
type PageState uint8

const (
	// PageFree means the page is erased and may be programmed.
	PageFree PageState = iota
	// PageValid means the page holds live data referenced by a mapping.
	PageValid
	// PageInvalid means the page was superseded and awaits erasure.
	PageInvalid
)

func (s PageState) String() string {
	switch s {
	case PageFree:
		return "free"
	case PageValid:
		return "valid"
	case PageInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("PageState(%d)", uint8(s))
	}
}

// Errors returned by chip operations.
var (
	ErrOutOfRange     = errors.New("nand: page address out of range")
	ErrNotErased      = errors.New("nand: programming a page that is not erased")
	ErrReadFree       = errors.New("nand: reading an unprogrammed page")
	ErrBadBlock       = errors.New("nand: block number out of range")
	ErrShortBuffer    = errors.New("nand: buffer shorter than page size")
	ErrWrongDataSize  = errors.New("nand: data length does not match page size")
	ErrEraseValidPage = errors.New("nand: erasing a block that still holds valid pages")
	ErrDiscarded      = errors.New("nand: reading a page whose payload was discarded")
	ErrNoPayload      = errors.New("nand: copy-back source holds no payload")
)

// OOBSize is the per-page spare (out-of-band) area in bytes. The spare
// area is programmed atomically with the page data (one program pulse
// covers both, as on real NAND) and read back with it; a torn page loses
// both. Real K9LCG08U1M pages carry 436 spare bytes; the FTL's page
// metadata record needs far less.
const OOBSize = 32

// Config describes chip geometry and operation latencies.
type Config struct {
	Blocks        int           // number of erase blocks
	PagesPerBlock int           // pages per erase block
	PageSize      int           // bytes per page
	ReadLatency   time.Duration // page read (cell array -> register)
	ProgLatency   time.Duration // page program
	EraseLatency  time.Duration // block erase
	// Channels is the number of independent flash channels and Ways the
	// number of chips (ways) sharing each channel. Physical pages stripe
	// across the Channels*Ways units (ppn mod units), so sequential PPN
	// streams — write frontiers, mapping-table flushes, GC copy-back —
	// pipeline across units while commands to the same unit serialize.
	// The Charger (the device-level channel scheduler) does the
	// pipelining: each page operation occupies its unit for the full
	// latency. 0 of either means 1.
	Channels int
	Ways     int
}

// DefaultConfig mirrors the OpenSSD flash subsystem at a laptop-friendly
// scale: 8 KB pages, 128 pages per block, and MLC-class latencies.
// 1,024 blocks give a 1 GiB raw device, plenty for every experiment
// while keeping tests fast.
func DefaultConfig() Config {
	return Config{
		Blocks:        1024,
		PagesPerBlock: 128,
		PageSize:      8192,
		ReadLatency:   200 * time.Microsecond,
		ProgLatency:   1300 * time.Microsecond,
		EraseLatency:  3 * time.Millisecond,
		Channels:      4,
		Ways:          1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Blocks <= 0:
		return errors.New("nand: Blocks must be positive")
	case c.PagesPerBlock <= 0:
		return errors.New("nand: PagesPerBlock must be positive")
	case c.PageSize <= 0:
		return errors.New("nand: PageSize must be positive")
	case c.Channels < 0:
		return errors.New("nand: Channels must not be negative")
	case c.Ways < 0:
		return errors.New("nand: Ways must not be negative")
	default:
		return nil
	}
}

// TotalPages reports the raw page capacity of the configuration.
func (c Config) TotalPages() int64 { return int64(c.Blocks) * int64(c.PagesPerBlock) }

// Units reports the number of independently busy channel/way units, at
// least 1.
func (c Config) Units() int {
	ch, w := c.Channels, c.Ways
	if ch < 1 {
		ch = 1
	}
	if w < 1 {
		w = 1
	}
	return ch * w
}

// Charger receives NAND latency charges instead of the chip's direct
// clock advances. A device's channel scheduler (internal/ncq) is one:
// each page operation occupies its channel/way unit for the full
// latency inside the command being executed, so operations on
// different units overlap in simulated time. A chip without one runs
// its operations one after another on the clock.
type Charger interface {
	// ChargeUnit occupies one channel/way unit for d and returns the
	// interval [start, end) the unit was actually busy — the exact
	// virtual-time placement of the operation, for tracing.
	ChargeUnit(unit int, d time.Duration) (start, end time.Duration)
	// ChargeAll occupies every unit for d (block erase over a
	// striped superblock) and returns the occupied interval.
	ChargeAll(d time.Duration) (start, end time.Duration)
}

// Chip is a simulated NAND flash array. It is not safe for concurrent
// use; the FTL layers above serialize access, as firmware does.
type Chip struct {
	cfg    Config
	clock  *simclock.Clock
	stats  *metrics.FlashCounters
	blocks []block

	// charger, when non-nil, receives all latency charges in place of
	// direct clock advances (see Charger).
	charger Charger

	// tracer, when non-nil, receives one event per counted page read,
	// program and block erase, placed at the exact interval the charge
	// occupied (see internal/trace).
	tracer *trace.Tracer

	// Whose work the chip is doing: the host session and serving-tier
	// request of the executing command (set by the device per attempt,
	// zero between commands) and why (host unless a GC, metadata, commit
	// or recovery episode is running). Written only while firmware
	// execution is serialized, so plain fields suffice.
	sess, req uint64
	origin    trace.Origin

	// Fault injection (fault.go). fault == nil models ideal flash.
	fault *FaultModel
	frng  *rand.Rand
	// transientLeft tracks open transient-fault bursts: remaining
	// consecutive failures per target (ppn for page ops, -(block+1)
	// for erases). Lazily allocated; reset by SetFaultModel.
	transientLeft map[int64]int

	// Op-indexed power-cut scheduler state (fault.go). opCount is
	// atomic only so harness code may sample it while commands are in
	// flight; mutation happens under the owning device's queue lock.
	opCount   atomic.Int64
	cutAt     int64 // op index at which power fails; 0 = disarmed
	powerLost bool

	// Page and spare-area buffers not holding a programmed page: an
	// erase hands a block's buffers here, Discard a superseded page's
	// payload (once no other cell holds it), and a program takes one, so
	// steady-state programming allocates nothing and the chip never owns
	// more payload buffers than it has had readable pages at once. New
	// buffers are carved a block's worth at a time.
	freeData []*payload
	freeOOB  [][]byte
	// last is the buffer the latest data program took. A data program of
	// the same bytes holds it too instead of taking one of its own, while
	// some cell still holds it: a released buffer is the next program's
	// to write into. An aged chip's filler pages are then one buffer.
	// lastHead is a copy of its first bytes (see repeatsLast).
	last     *payload
	lastHead [64]byte

	// zero is the one read-only all-zero page every blank cell shares: a
	// program handed a nil payload points the cell here instead of taking
	// a buffer. The chip holds it, once, for good: no cell takes or drops
	// a hold on it, releaseData never puts it on freeData, and CorruptPage
	// gives a blank cell a private copy before damaging it.
	zero payload
	// units caches cfg.Units() for Unit.
	units int64
}

// payload is one page-sized buffer and the number of cells holding it.
// A program gives its cell a buffer of its own unless it repeats the last
// program's bytes; a copy-back points the destination at the source's
// buffer. Either way the cell is one holder more. A cell lets go at
// erase, Discard or damage, and the last holder to let go returns the
// buffer to the free list.
type payload struct {
	b    []byte
	held int32
}

type block struct {
	data       []*payload  // page payloads; nil unless programmed, readable and not discarded, &Chip.zero if blank
	oob        [][]byte    // spare-area contents; nil reads back as zeros
	state      []PageState // per-page state
	torn       []bool      // partially programmed/erased pages (never pass ECC)
	eraseCount int64
	validCount int // pages in PageValid, maintained incrementally
	freeCount  int // pages in PageFree, maintained incrementally
}

// New creates a chip array with every block erased. The clock and stats
// may be shared with other devices; stats may be nil to disable
// counting.
func New(cfg Config, clock *simclock.Clock, stats *metrics.FlashCounters) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		clock = simclock.New()
	}
	c := &Chip{cfg: cfg, clock: clock, stats: stats, zero: payload{b: make([]byte, cfg.PageSize), held: 1}, units: int64(cfg.Units())}
	c.blocks = make([]block, cfg.Blocks)
	for i := range c.blocks {
		c.blocks[i] = block{
			data:      make([]*payload, cfg.PagesPerBlock),
			oob:       make([][]byte, cfg.PagesPerBlock),
			state:     make([]PageState, cfg.PagesPerBlock),
			torn:      make([]bool, cfg.PagesPerBlock),
			freeCount: cfg.PagesPerBlock,
		}
	}
	return c, nil
}

// Config returns the chip geometry and timing.
func (c *Chip) Config() Config { return c.cfg }

// takeOOB pops a spare-area buffer off the free list, carving a new slab
// of one block's worth when the list is empty. The buffer's content is
// whatever its last user left.
func (c *Chip) takeOOB() []byte {
	if len(c.freeOOB) == 0 {
		slab := make([]byte, c.cfg.PagesPerBlock*OOBSize)
		for off := len(slab) - OOBSize; off >= 0; off -= OOBSize {
			c.freeOOB = append(c.freeOOB, slab[off:off+OOBSize:off+OOBSize])
		}
	}
	buf := c.freeOOB[len(c.freeOOB)-1]
	c.freeOOB = c.freeOOB[:len(c.freeOOB)-1]
	return buf
}

// takeData pops a payload buffer off the free list for one holder,
// carving a new slab of one block's worth when the list is empty. The
// buffer's content is whatever its last user left.
func (c *Chip) takeData() *payload {
	if len(c.freeData) == 0 {
		size := c.cfg.PageSize
		slab := make([]byte, c.cfg.PagesPerBlock*size)
		bufs := make([]payload, c.cfg.PagesPerBlock)
		for i := len(bufs) - 1; i >= 0; i-- {
			bufs[i].b = slab[i*size : (i+1)*size : (i+1)*size]
			c.freeData = append(c.freeData, &bufs[i])
		}
	}
	d := c.freeData[len(c.freeData)-1]
	c.freeData = c.freeData[:len(c.freeData)-1]
	d.held = 1
	return d
}

// releasePage takes a page's payload and spare area away (erase, or
// damage to the medium) and keeps the buffers for the next program.
func (c *Chip) releasePage(b *block, pi int) {
	c.releaseData(b, pi)
	if b.oob[pi] != nil {
		c.freeOOB = append(c.freeOOB, b.oob[pi])
		b.oob[pi] = nil
	}
}

// releaseData takes a page's payload away and, if the page was its last
// holder, keeps the buffer for the next program. A buffer another cell
// still holds (a copy-back shares its source's) is not the page's to
// give, and neither is the shared zero page: recycled, the next program
// would write into every cell holding it at once.
func (c *Chip) releaseData(b *block, pi int) {
	d := b.data[pi]
	b.data[pi] = nil
	if d != nil && d != &c.zero && c.unhold(d) {
		c.freeData = append(c.freeData, d)
	}
}

// unhold drops one holder of d and reports whether it was the last.
func (c *Chip) unhold(d *payload) bool {
	d.held--
	return d.held == 0
}

// Clock returns the simulated clock the chip advances.
func (c *Chip) Clock() *simclock.Clock { return c.clock }

// SetCharger installs the latency charger.
func (c *Chip) SetCharger(ch Charger) { c.charger = ch }

// SetTracer installs (or, with nil, removes) the event tracer.
func (c *Chip) SetTracer(t *trace.Tracer) { c.tracer = t }

// SetCommand attributes the chip's work to a host session and
// serving-tier request until the next call; (0, 0) attributes it to
// neither.
func (c *Chip) SetCommand(sess, req uint64) { c.sess, c.req = sess, req }

// Session reports the host session the chip is working for.
func (c *Chip) Session() uint64 { return c.sess }

// SetOrigin sets why the chip is working and returns the previous
// origin, for the episode that sets it to restore on its way out.
func (c *Chip) SetOrigin(o trace.Origin) trace.Origin {
	prev := c.origin
	c.origin = o
	return prev
}

// Origin reports why the chip is working.
func (c *Chip) Origin() trace.Origin { return c.origin }

// note records one flash-operation event over the charged interval,
// attributed to the chip's session, request and origin when the
// operation ran. addr is a PPN for page operations and a block
// number for erases, whose unit is -1: they occupy all units.
func (c *Chip) note(k trace.Kind, addr int64, st, en time.Duration) {
	if c.tracer == nil {
		return
	}
	unit := -1
	if k != trace.KNandErase {
		unit = c.Unit(PPN(addr))
	}
	c.tracer.Record(trace.Event{
		Layer: trace.LNAND, Kind: k,
		Start: st, Dur: en - st,
		Addr: addr, Unit: int32(unit),
		Sess: c.sess, Req: c.req, Origin: c.origin,
	})
}

// Unit reports which channel/way unit a physical page lives on.
func (c *Chip) Unit(p PPN) int { return int(int64(p) % c.units) }

// chargeOp occupies the page's channel/way unit for d: through the
// charger when one is installed, on the clock otherwise.
func (c *Chip) chargeOp(p PPN, d time.Duration) (start, end time.Duration) {
	if c.charger != nil {
		return c.charger.ChargeUnit(c.Unit(p), d)
	}
	end = c.clock.Advance(d)
	return end - d, end
}

// chargeErase charges a block erase. A block stripes across every
// channel/way unit (a superblock), so the erase occupies all of them.
func (c *Chip) chargeErase(d time.Duration) (start, end time.Duration) {
	if c.charger != nil {
		return c.charger.ChargeAll(d)
	}
	end = c.clock.Advance(d)
	return end - d, end
}

// split decomposes a PPN into block and in-block page indexes.
func (c *Chip) split(p PPN) (int, int, error) {
	if p < 0 || int64(p) >= c.cfg.TotalPages() {
		return 0, 0, fmt.Errorf("%w: ppn %d", ErrOutOfRange, p)
	}
	return int(int64(p) / int64(c.cfg.PagesPerBlock)), int(int64(p) % int64(c.cfg.PagesPerBlock)), nil
}

// PPNOf composes a physical page number from block and page indexes.
func (c *Chip) PPNOf(blk BlockNum, page int) PPN {
	return PPN(int64(blk)*int64(c.cfg.PagesPerBlock) + int64(page))
}

// BlockOf reports which erase block a physical page belongs to.
func (c *Chip) BlockOf(p PPN) BlockNum {
	return BlockNum(int64(p) / int64(c.cfg.PagesPerBlock))
}

// ReadPage copies a programmed page's content into buf, which must be at
// least PageSize bytes. It charges the read latency, plus read-retry
// rounds when the installed fault model pushes the raw bit-error count
// near the ECC threshold; past the threshold it returns
// ErrUncorrectable and buf is untouched.
func (c *Chip) ReadPage(p PPN, buf []byte) error {
	if len(buf) < c.cfg.PageSize {
		return ErrShortBuffer
	}
	data, _, _, err := c.readCell(p, false)
	if err == nil {
		copy(buf, data)
	}
	return err
}

// ReadCopyBack is the read half of a NAND copy-back: a page read,
// charged, counted and faulted as one, that leaves the page in the chip
// for ProgramCopyBack to program from. Nothing is transferred.
func (c *Chip) ReadCopyBack(p PPN) error {
	_, _, _, err := c.readCell(p, false)
	return err
}

// ScanRead is the recovery-scan read: data and spare area in one
// transfer, and quiet fault accounting (a torn or ECC-dead page returns
// ErrUncorrectable without counting as an escaped uncorrectable read —
// the scan expects to trip over such pages). A free page returns
// (PageFree, nil) with nothing copied: the scan still issued the read
// and found the all-ones erased pattern. A discarded page returns
// PageInvalid, its spare area and a zeroed payload.
func (c *Chip) ScanRead(p PPN, buf, oobBuf []byte) (PageState, error) {
	if len(buf) < c.cfg.PageSize || len(oobBuf) < OOBSize {
		return PageFree, ErrShortBuffer
	}
	data, oob, st, err := c.readCell(p, true)
	if err == nil && st != PageFree {
		copy(buf, data)
		clear(oobBuf[copy(oobBuf, oob):OOBSize])
	}
	return st, err
}

// readCell is the chip's one read path: it charges, counts and faults one
// page read and returns the cell's own payload and spare slices (nil,
// nil for a scanned free page; the zero page and the spare area for a
// scanned discarded one) and the page's state. Callers copy out of them
// or, a copy-back, ignore them. A scan read is quiet: expected failures
// (torn pages, ECC overflow) do not bump the UncorrectableReads/
// ReadRetries escape counters, interface faults and hangs are not
// sampled, and a free page reads as erased instead of failing. Only the
// scan may read a discarded page: anyone else gets ErrDiscarded, after
// the read was charged like any other.
func (c *Chip) readCell(p PPN, scan bool) (data, oob []byte, st PageState, err error) {
	bi, pi, err := c.split(p)
	if err != nil {
		return nil, nil, PageFree, err
	}
	b := &c.blocks[bi]
	st = b.state[pi]
	if st == PageFree && !scan {
		return nil, nil, st, fmt.Errorf("%w: ppn %d", ErrReadFree, p)
	}
	if cut, err := c.opTick(); err != nil {
		return nil, nil, st, err
	} else if cut {
		// Power died mid-read: no data transferred, no cell change.
		return nil, nil, st, ErrPowerLost
	}
	if !scan {
		c.unitHangs(p, b)
		if c.transientFails(int64(p), b) {
			// Interface fault: the read command ran (and took its time) but
			// the transfer came back garbled. Nothing was transferred;
			// reissuing the command succeeds once the burst clears.
			c.chargeOp(p, c.cfg.ReadLatency)
			return nil, nil, st, fmt.Errorf("%w: read ppn %d", ErrTransient, p)
		}
	}
	start, end := c.chargeOp(p, c.cfg.ReadLatency)
	if c.stats != nil {
		c.stats.PageReads.Add(1)
	}
	c.note(trace.KNandRead, int64(p), start, end)
	if st == PageFree {
		return nil, nil, st, nil
	}
	err = c.readFaults(p, b, pi, scan)
	// A torn page failed ECC above, so a payload missing here was
	// discarded.
	if err == nil && b.data[pi] == nil {
		if scan {
			return c.zero.b, b.oob[pi], st, nil
		}
		err = ErrDiscarded
	}
	if err != nil {
		return nil, nil, st, fmt.Errorf("%w: ppn %d", err, p)
	}
	return b.data[pi].b, b.oob[pi], st, nil
}

// ProgramCopyBack is the program half of a NAND copy-back: it programs
// dst with src's payload and spare record, checked, faulted, charged,
// counted and traced exactly as ProgramPageOOB. The copy moves
// no bytes: dst becomes one more holder of src's payload buffer (a blank
// source's stays the zero page), and only the spare record is copied. A
// source without a payload — free, torn, destroyed or discarded — fails
// with ErrNoPayload before anything is charged.
func (c *Chip) ProgramCopyBack(dst, src PPN) error {
	bi, pi, err := c.split(src)
	if err != nil {
		return err
	}
	sb := &c.blocks[bi]
	d := sb.data[pi]
	if d == nil {
		return fmt.Errorf("%w: ppn %d", ErrNoPayload, src)
	}
	if d == &c.zero {
		d = nil
	}
	return c.programPage(dst, nil, d, sb.oob[pi])
}

// ProgramPage writes data into an erased page and marks it valid. The
// data length must equal PageSize, or data is nil: a blank program, which
// reads back as zeros and is checked, faulted, charged, counted and
// traced like any other but stores no bytes of its own. Programming a
// non-free page fails, enforcing the erase-before-write rule.
func (c *Chip) ProgramPage(p PPN, data []byte) error {
	return c.ProgramPageOOB(p, data, nil)
}

// ProgramPageOOB programs a page together with its spare area in one
// pulse, exactly as the flash interface does (the OOB bytes are loaded
// into the tail of the page register before the program command). A nil
// oob leaves the spare area all-zero; a torn or failed program consumes
// data and spare alike.
func (c *Chip) ProgramPageOOB(p PPN, data, oob []byte) error {
	return c.programPage(p, data, nil, oob)
}

// programPage programs p from data, or from shared, another cell's
// payload, when that is non-nil; with neither the page is blank.
func (c *Chip) programPage(p PPN, data []byte, shared *payload, oob []byte) error {
	bi, pi, err := c.split(p)
	if err != nil {
		return err
	}
	if data != nil && len(data) != c.cfg.PageSize {
		return fmt.Errorf("%w: got %d want %d", ErrWrongDataSize, len(data), c.cfg.PageSize)
	}
	if len(oob) > OOBSize {
		return fmt.Errorf("%w: oob %d exceeds spare area %d", ErrWrongDataSize, len(oob), OOBSize)
	}
	b := &c.blocks[bi]
	if b.state[pi] != PageFree {
		return fmt.Errorf("%w: ppn %d is %v", ErrNotErased, p, b.state[pi])
	}
	if cut, err := c.opTick(); err != nil {
		return err
	} else if cut {
		// Power died mid-program: the page is torn — some cells hold the
		// new data, some don't, and ECC will never check out. The page is
		// consumed (it cannot be programmed again without an erase).
		b.state[pi] = PageValid
		b.torn[pi] = true
		b.validCount++
		b.freeCount--
		return ErrPowerLost
	}
	c.unitHangs(p, b)
	if c.transientFails(int64(p), b) {
		// Interface fault: the program command never reached the cells,
		// so unlike a status fail the page is NOT consumed — the same
		// ppn can be retried in place once the burst clears.
		c.chargeOp(p, c.cfg.ProgLatency)
		return fmt.Errorf("%w: program ppn %d", ErrTransient, p)
	}
	if c.programFails(b) {
		// Status fail: the program pulse ran (and took its time) but the
		// cells did not verify. The page is consumed; the firmware must
		// rewrite the data elsewhere and retire the block.
		b.state[pi] = PageInvalid
		b.torn[pi] = true
		b.freeCount--
		c.chargeOp(p, c.cfg.ProgLatency)
		if c.stats != nil {
			c.stats.ProgramFails.Add(1)
		}
		return fmt.Errorf("%w: ppn %d", ErrProgramFail, p)
	}
	b.state[pi] = PageValid
	b.validCount++
	b.freeCount--
	// Charged, counted and traced before the payload copy, so the
	// counter's locked add does not wait out the copy's stores.
	st, en := c.chargeOp(p, c.cfg.ProgLatency)
	if c.stats != nil {
		c.stats.PageWrites.Add(1)
	}
	c.note(trace.KNandProg, int64(p), st, en)
	// A free page holds no buffers (releasePage took them at erase).
	switch {
	case shared != nil:
		shared.held++
		b.data[pi] = shared
	case data == nil:
		b.data[pi] = &c.zero
	case c.repeatsLast(data):
		c.last.held++
		b.data[pi] = c.last
	default:
		c.last = c.takeData()
		copy(c.last.b, data)
		copy(c.lastHead[:], data)
		b.data[pi] = c.last
	}
	if len(oob) > 0 {
		b.oob[pi] = c.takeOOB()
		clear(b.oob[pi][copy(b.oob[pi], oob):])
	}
	return nil
}

// repeatsLast reports whether data is the last data program's bytes and
// some cell still holds them. The head is compared with the chip's own
// copy first, so a program that differs early, as most do, leaves the
// held buffer's cache lines alone.
func (c *Chip) repeatsLast(data []byte) bool {
	d := c.last
	if d == nil || d.held == 0 {
		return false
	}
	n := min(len(c.lastHead), len(data))
	return bytes.Equal(data[:n], c.lastHead[:n]) && bytes.Equal(d.b, data)
}

// Invalidate marks a programmed page as superseded, making its block a
// better GC victim. Invalidating a free page is an error; invalidating
// an already-invalid page is a harmless no-op (mappings may race with
// GC bookkeeping in the layers above).
func (c *Chip) Invalidate(p PPN) error {
	if c.powerLost {
		return ErrPowerLost
	}
	bi, pi, err := c.split(p)
	if err != nil {
		return err
	}
	b := &c.blocks[bi]
	if b.state[pi] == PageFree {
		return fmt.Errorf("nand: invalidating free ppn %d", p)
	}
	if b.state[pi] == PageValid {
		b.validCount--
	}
	b.state[pi] = PageInvalid
	return nil
}

// Discard is Invalidate for a page whose content nothing will read
// again: the page's payload buffer goes back to the chip for the next
// program at once rather than at erase. The spare area stays (a recovery
// scan still reads every programmed page's record), and so does the
// page's state: a discarded page is invalid, and reads of it fail with
// ErrDiscarded, except the scan's, which sees a zeroed payload. Nothing
// is charged, counted or traced, as for Invalidate.
func (c *Chip) Discard(p PPN) error {
	if err := c.Invalidate(p); err != nil {
		return err
	}
	bi, pi, _ := c.split(p)
	c.releaseData(&c.blocks[bi], pi)
	return nil
}

// EraseBlock wipes a block, returning every page to the free state, and
// charges the erase latency. Erasing a block that still contains valid
// pages is rejected so FTL bugs surface loudly instead of losing data.
func (c *Chip) EraseBlock(blk BlockNum) error {
	if blk < 0 || int(blk) >= c.cfg.Blocks {
		return fmt.Errorf("%w: %d", ErrBadBlock, blk)
	}
	b := &c.blocks[blk]
	for pi, st := range b.state {
		if st == PageValid {
			return fmt.Errorf("%w: block %d page %d", ErrEraseValidPage, blk, pi)
		}
	}
	if cut, err := c.opTick(); err != nil {
		return err
	} else if cut {
		// Power died mid-erase: the cells are half-erased. Every page is
		// unusable until a fresh, complete erase succeeds.
		c.wreckBlock(b)
		return ErrPowerLost
	}
	if c.transientFails(-int64(blk)-1, b) {
		// Interface fault: the erase command was lost on the channel.
		// The block is untouched (not wrecked); retry in place.
		c.chargeErase(c.cfg.EraseLatency)
		return fmt.Errorf("%w: erase block %d", ErrTransient, blk)
	}
	if c.eraseFails(b) {
		// Status fail: the erase pulse ran but the block did not verify.
		// The firmware must retire the block.
		c.wreckBlock(b)
		b.eraseCount++
		c.chargeErase(c.cfg.EraseLatency)
		if c.stats != nil {
			c.stats.EraseFails.Add(1)
		}
		return fmt.Errorf("%w: block %d", ErrEraseFail, blk)
	}
	for pi := range b.state {
		b.state[pi] = PageFree
		c.releasePage(b, pi)
		b.torn[pi] = false
	}
	b.validCount = 0
	b.freeCount = c.cfg.PagesPerBlock
	b.eraseCount++
	st, en := c.chargeErase(c.cfg.EraseLatency)
	if c.stats != nil {
		c.stats.BlockErases.Add(1)
	}
	c.note(trace.KNandErase, int64(blk), st, en)
	return nil
}

// wreckBlock leaves every page of a block in the torn, consumed state
// (interrupted or failed erase): not free, not readable, reclaimable
// only by a successful erase.
func (c *Chip) wreckBlock(b *block) {
	for pi := range b.state {
		b.state[pi] = PageInvalid
		c.releasePage(b, pi)
		b.torn[pi] = true
	}
	b.validCount = 0
	b.freeCount = 0
}

// State reports the lifecycle state of a physical page.
func (c *Chip) State(p PPN) (PageState, error) {
	bi, pi, err := c.split(p)
	if err != nil {
		return PageFree, err
	}
	return c.blocks[bi].state[pi], nil
}

// ValidPages reports how many valid pages a block holds. O(1).
func (c *Chip) ValidPages(blk BlockNum) (int, error) {
	if blk < 0 || int(blk) >= c.cfg.Blocks {
		return 0, fmt.Errorf("%w: %d", ErrBadBlock, blk)
	}
	return c.blocks[blk].validCount, nil
}

// FreePages reports how many erased (programmable) pages a block holds. O(1).
func (c *Chip) FreePages(blk BlockNum) (int, error) {
	if blk < 0 || int(blk) >= c.cfg.Blocks {
		return 0, fmt.Errorf("%w: %d", ErrBadBlock, blk)
	}
	return c.blocks[blk].freeCount, nil
}

// WearSpread reports max minus min per-block erase count — the
// wear-leveling quality gauge published into the stat registry.
func (c *Chip) WearSpread() int64 {
	if len(c.blocks) == 0 {
		return 0
	}
	lo, hi := c.blocks[0].eraseCount, c.blocks[0].eraseCount
	for i := range c.blocks {
		ec := c.blocks[i].eraseCount
		if ec < lo {
			lo = ec
		}
		if ec > hi {
			hi = ec
		}
	}
	return hi - lo
}
