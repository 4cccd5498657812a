// Per-page metadata: the OOB (spare-area) record written atomically
// with every page program, and the content-bearing metadata machinery
// built on it.
//
// Real OpenSSD-class firmware keeps the LPN of every data page in the
// page's spare area and rebuilds the mapping table from a full-device
// scan when the persisted image is unusable; we simulate the same
// bytes. Every page the FTL programs — data or metadata — carries a
// 32-byte record:
//
//	[0:2]   magic 0x0FB1 (little endian)
//	[2]     kind: 0 = data page, 1 = metadata page
//	[3]     state: data pages  — 0 base write, 1 transactional CoW write
//	               meta pages  — 0 map-group image, 1 slot-chain page
//	[4:12]  sequence number (monotonic version counter, u64 LE)
//	[12:20] field A: data  -> LPN
//	               group -> map group number
//	               chain -> slot id | chain index << 16 | chain length << 32
//	[20:28] field B: data  -> txn id (low 32) | last-committed txn at
//	                          program time (high 32)
//	               meta  -> payload CRC32 (low 32) | payload length << 32
//	[28:32] CRC32 (IEEE) over bytes [0:28)
//
// The sequence number is version identity, not a program-event counter:
// GC relocation and meta-ring re-homing copy a page's record verbatim,
// so the newest sequence number for an LPN (or the newest complete
// chain for a slot) is always the newest *version*, wherever the bytes
// physically live. Meta payload CRCs cover the full padded flash page.
package ftl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/nand"
)

// The page metadata record must fit the chip's spare area.
var _ [nand.OOBSize - oobRecSize]struct{}

// OOB record layout constants.
const (
	oobRecSize = 32
	oobMagic   = 0x0FB1

	oobKindData = 0
	oobKindMeta = 1

	dataStateBase = 0 // ordinary (base) write: durable once programmed
	dataStateTx   = 1 // transactional CoW write: durable once its txn commits

	metaStateGroup = 0 // one L2P map group image
	metaStateChain = 1 // one page of a named slot chain
)

// oobRec is the decoded form of a page's spare-area record.
type oobRec struct {
	kind  uint8
	state uint8
	seq   uint64
	a     uint64
	b     uint64
}

// encodeOOB serializes a record with its header CRC. It returns an
// array so the record can live on the caller's stack: the chip copies
// the spare bytes it is handed.
func encodeOOB(r oobRec) [oobRecSize]byte {
	var buf [oobRecSize]byte
	binary.LittleEndian.PutUint16(buf[0:2], oobMagic)
	buf[2] = r.kind
	buf[3] = r.state
	binary.LittleEndian.PutUint64(buf[4:12], r.seq)
	binary.LittleEndian.PutUint64(buf[12:20], r.a)
	binary.LittleEndian.PutUint64(buf[20:28], r.b)
	binary.LittleEndian.PutUint32(buf[28:32], headerCRC(buf[:28]))
	return buf
}

// headerCRC is crc32.ChecksumIEEE for the record header, spelled out
// slicing-by-8, eight and then four bytes a step: the library routine
// dispatches through a function variable, which would force every
// record it is shown onto the heap.
func headerCRC(b []byte) uint32 {
	t := &crcSlicing8
	crc := ^uint32(0)
	for ; len(b) >= 8; b = b[8:] {
		crc ^= binary.LittleEndian.Uint32(b)
		crc = t[0][b[7]] ^ t[1][b[6]] ^ t[2][b[5]] ^ t[3][b[4]] ^
			t[4][crc>>24] ^ t[5][crc>>16&0xFF] ^ t[6][crc>>8&0xFF] ^ t[7][crc&0xFF]
	}
	for ; len(b) >= 4; b = b[4:] { // the header's last four bytes
		crc ^= binary.LittleEndian.Uint32(b)
		crc = t[0][crc>>24] ^ t[1][crc>>16&0xFF] ^ t[2][crc>>8&0xFF] ^ t[3][crc&0xFF]
	}
	for _, v := range b {
		crc = t[0][byte(crc)^v] ^ crc>>8
	}
	return ^crc
}

// crcSlicing8[k][v] is the IEEE CRC register after byte v is followed by
// k zero bytes.
var crcSlicing8 = func() (t [8]crc32.Table) {
	t[0] = *crc32.IEEETable
	for v := range 256 {
		crc := t[0][v]
		for k := 1; k < 8; k++ {
			crc = t[0][byte(crc)] ^ crc>>8
			t[k][v] = crc
		}
	}
	return t
}()

// decodeOOB parses and validates a spare-area record. It reports false
// for a bad magic, an unknown kind, or a header CRC mismatch.
func decodeOOB(buf []byte) (oobRec, bool) {
	if len(buf) < oobRecSize {
		return oobRec{}, false
	}
	if binary.LittleEndian.Uint16(buf[0:2]) != oobMagic {
		return oobRec{}, false
	}
	if binary.LittleEndian.Uint32(buf[28:32]) != headerCRC(buf[:28]) {
		return oobRec{}, false
	}
	r := oobRec{
		kind:  buf[2],
		state: buf[3],
		seq:   binary.LittleEndian.Uint64(buf[4:12]),
		a:     binary.LittleEndian.Uint64(buf[12:20]),
		b:     binary.LittleEndian.Uint64(buf[20:28]),
	}
	if r.kind > oobKindMeta || r.state > 1 {
		return oobRec{}, false
	}
	return r, true
}

// dataOOB builds the spare-area record for a data-page program.
func (f *FTL) dataOOB(lpn LPN, state uint8, tid uint64) [oobRecSize]byte {
	return encodeOOB(oobRec{
		kind:  oobKindData,
		state: state,
		seq:   f.nextSeq(),
		a:     uint64(lpn),
		b:     tid&0xFFFFFFFF | (f.maxCommitted&0xFFFFFFFF)<<32,
	})
}

// metaTag is the RAM bookkeeping for one meta page of the ring: what
// its spare record says, so the ring can tell whether the page is still
// pointed at when it re-homes it. Narrow fields keep a ring block's
// tags small: a map group number fits 32 bits, as a PPN does.
type metaTag struct {
	seq    uint64 // version identity; preserved across re-homing
	group  int32  // group pages: which map group
	payLen uint32 // meaningful payload bytes in the page (0 for pads)
	slot   uint16 // chain pages: slot id, position and total length
	idx    uint16
	length uint16
	state  uint8 // metaStateGroup or metaStateChain
	live   bool  // programmed and not yet superseded, re-homed or erased
}

// metaOOB builds the spare-area record for a metadata-page program.
// payCRC covers the full padded flash page.
func metaOOB(t metaTag, payCRC uint32) [oobRecSize]byte {
	r := oobRec{kind: oobKindMeta, state: t.state, seq: t.seq}
	if t.state == metaStateGroup {
		r.a = uint64(t.group)
	} else {
		r.a = uint64(t.slot) | uint64(t.idx)<<16 | uint64(t.length)<<32
	}
	r.b = uint64(payCRC) | uint64(t.payLen)<<32
	return encodeOOB(r)
}

// nextSeq hands out one fresh sequence number.
func (f *FTL) nextSeq() uint64 {
	s := f.seq
	f.seq++
	return s
}

// slotID returns the stable numeric id of a named slot, assigning the
// next one on first use. Ids are what chain pages carry in their spare
// records and what the slot tables are indexed by; the name <-> id
// binding is part of the firmware (the set of slot names is fixed per
// software version), so it survives power loss without being persisted.
func (f *FTL) slotID(name string) uint16 {
	if id, ok := f.slotIDs[name]; ok {
		return id
	}
	return f.newSlot(name)
}

// newSlot binds the next id to name, with no chain and no payload.
func (f *FTL) newSlot(name string) uint16 {
	id := uint16(len(f.slotNames))
	f.slotIDs[name] = id
	f.slotNames = append(f.slotNames, name)
	f.metaSlots = append(f.metaSlots, nil)
	f.metaData = append(f.metaData, nil)
	return id
}

// mapTable is a logical-to-physical table held in the format of the
// flash pages that persist it: 4-byte little-endian PPNs, 0xFFFFFFFF for
// an unmapped entry (InvalidPPN truncated to 32 bits, and the erased-flash
// pattern, as real map pages use), padded with 0xFF to whole pages. A
// map-group flush programs page(g) as it stands.
type mapTable struct {
	b        []byte
	pageSize int
}

const unmappedEntry = 0xFFFFFFFF

// newMapTable returns a table of the given number of map pages with every
// entry unmapped.
func newMapTable(pages, pageSize int) mapTable {
	t := mapTable{b: make([]byte, pages*pageSize), pageSize: pageSize}
	t.reset()
	return t
}

func (t mapTable) reset() {
	for i := range t.b {
		t.b[i] = 0xFF
	}
}

func (t mapTable) get(lpn LPN) nand.PPN {
	if v := binary.LittleEndian.Uint32(t.b[4*lpn:]); v != unmappedEntry {
		return nand.PPN(v)
	}
	return nand.InvalidPPN
}

func (t mapTable) set(lpn LPN, ppn nand.PPN) {
	binary.LittleEndian.PutUint32(t.b[4*lpn:], uint32(ppn))
}

// page returns map group g's flash page, aliasing the table.
func (t mapTable) page(g int64) []byte {
	lo := int(g) * t.pageSize
	return t.b[lo : lo+t.pageSize]
}

// checkMapFormat reports whether a table over the chip fits the map-page
// format: every PPN must be distinct from unmappedEntry in four bytes, and
// entries must not straddle pages.
func checkMapFormat(c nand.Config) error {
	if c.TotalPages() >= unmappedEntry {
		return fmt.Errorf("ftl: %d physical pages, a 4-byte map entry addresses at most 2^32-2", c.TotalPages())
	}
	if c.PageSize%4 != 0 {
		return fmt.Errorf("ftl: page size %d is not a whole number of 4-byte map entries", c.PageSize)
	}
	return nil
}

// loadMapGroup adopts one map-group page image read from flash into
// dst, after validating every entry below LogicalPages: it reports an
// error, dst untouched, on a PPN outside the device.
func (f *FTL) loadMapGroup(dst mapTable, g int64, page []byte) error {
	per := mapEntriesPerPage(f.PageSize())
	n := min(per, f.cfg.LogicalPages-g*per)
	if g < 0 || n <= 0 || int64(len(page)) < 4*n {
		return fmt.Errorf("ftl: map group %d: %d-byte image, table of %d entries", g, len(page), f.cfg.LogicalPages)
	}
	page = page[:4*n]
	total := f.chip.Config().TotalPages()
	for i := 0; i < len(page); i += 4 {
		if v := binary.LittleEndian.Uint32(page[i:]); v != unmappedEntry && int64(v) >= total {
			return fmt.Errorf("ftl: map group %d entry %d references ppn %d beyond device", g, i/4, v)
		}
	}
	copy(dst.page(g), page)
	return nil
}

// serializeBBT renders the bad-block table and current meta-ring
// membership: u32 bad count, u32 ring count, then sorted bad block
// numbers and the ring blocks in position order, all u32 LE.
func (f *FTL) serializeBBT() []byte {
	bad := sortedKeys(f.bad)
	buf := make([]byte, 8+4*(len(bad)+len(f.metaBlocks)))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(bad)))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(f.metaBlocks)))
	off := 8
	for _, b := range bad {
		binary.LittleEndian.PutUint32(buf[off:], uint32(b))
		off += 4
	}
	for _, b := range f.metaBlocks {
		binary.LittleEndian.PutUint32(buf[off:], uint32(b))
		off += 4
	}
	return buf
}

// tidRange is one contiguous range of committed transaction ids.
type tidRange struct{ lo, hi uint64 }

// appendTidRanges renders the committed-transaction log onto buf: u32
// range count, then lo/hi u64 pairs.
func appendTidRanges(buf []byte, rs []tidRange) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rs)))
	for _, r := range rs {
		buf = binary.LittleEndian.AppendUint64(buf, r.lo)
		buf = binary.LittleEndian.AppendUint64(buf, r.hi)
	}
	return buf
}

// decodeTidRanges parses a committed-transaction log payload; a short
// or inconsistent payload yields an error.
func decodeTidRanges(buf []byte) ([]tidRange, error) {
	if len(buf) < 4 {
		return nil, errors.New("ftl: txlog payload too short")
	}
	n := int(binary.LittleEndian.Uint32(buf[0:4]))
	if len(buf) < 4+16*n {
		return nil, fmt.Errorf("ftl: txlog payload truncated (%d ranges, %d bytes)", n, len(buf))
	}
	rs := make([]tidRange, 0, n)
	off := 4
	for i := 0; i < n; i++ {
		rs = append(rs, tidRange{
			lo: binary.LittleEndian.Uint64(buf[off:]),
			hi: binary.LittleEndian.Uint64(buf[off+8:]),
		})
		off += 16
	}
	return rs, nil
}

// insertTid adds one tid to a sorted, merged range list.
func insertTid(rs []tidRange, tid uint64) []tidRange {
	i := 0
	for i < len(rs) && rs[i].hi+1 < tid {
		i++
	}
	if i < len(rs) && rs[i].lo <= tid+1 {
		// Extends or lands inside range i.
		if tid < rs[i].lo {
			rs[i].lo = tid
		}
		if tid > rs[i].hi {
			rs[i].hi = tid
		}
		// Merge with the next range if they now touch.
		if i+1 < len(rs) && rs[i].hi+1 >= rs[i+1].lo {
			rs[i].hi = max(rs[i].hi, rs[i+1].hi)
			rs = append(rs[:i+1], rs[i+2:]...)
		}
		return rs
	}
	rs = append(rs, tidRange{})
	copy(rs[i+1:], rs[i:])
	rs[i] = tidRange{lo: tid, hi: tid}
	return rs
}

func rangesContain(rs []tidRange, tid uint64) bool {
	for _, r := range rs {
		if tid >= r.lo && tid <= r.hi {
			return true
		}
		if tid < r.lo {
			return false
		}
	}
	return false
}

// TxCommitted reports whether a transaction id is recorded as durably
// committed in the transaction log.
func (f *FTL) TxCommitted(tid uint64) bool { return rangesContain(f.committed, tid) }

// NoteCommittedTx records a transaction as durably committed: the
// committed-tid log is updated and persisted as the "txlog" meta slot
// (one page program). That program is THE durable commit point — a
// crash before it recovers the transaction as in-flight, a crash after
// it recovers it as committed. On error the in-memory log is rolled
// back so RAM never claims a commit flash does not hold.
func (f *FTL) NoteCommittedTx(tid uint64) error {
	if tid == 0 || f.TxCommitted(tid) {
		return nil
	}
	f.savedTids = append(f.savedTids[:0], f.committed...)
	savedMax := f.maxCommitted
	f.committed = insertTid(f.committed, tid)
	if tid > f.maxCommitted {
		f.maxCommitted = tid
	}
	f.txlogBuf = appendTidRanges(f.txlogBuf[:0], f.committed)
	if err := f.WriteMetaSlotData("txlog", f.txlogBuf, 1); err != nil {
		f.committed, f.maxCommitted = append(f.committed[:0], f.savedTids...), savedMax
		return err
	}
	return nil
}

// ErrWornOut is the typed end-of-life condition: the bad-block count
// has exhausted the spare reserve and the device can no longer accept
// writes. It is distinct from a transiently full device (ErrDeviceFull
// with free space reclaimable by trims), though errors.Is treats a
// worn-out error as both, preserving existing callers.
var ErrWornOut = errors.New("ftl: spare reserve exhausted (device worn out)")

// wornOutError carries the retirement numbers behind ErrWornOut.
type wornOutError struct {
	retired, spare int
}

func (e *wornOutError) Error() string {
	return fmt.Sprintf("ftl: %d blocks retired, spare reserve of %d exhausted (device worn out)",
		e.retired, e.spare)
}

// Is matches both the new typed sentinel and, for backward
// compatibility, the bare ErrDeviceFull older callers test for.
func (e *wornOutError) Is(target error) bool {
	return target == ErrWornOut || target == ErrDeviceFull
}

// WornOut reports whether the device has entered the terminal worn-out
// state (spare reserve exhausted). Once set it never clears.
func (f *FTL) WornOut() bool { return f.wornOut }

// wornOut marks the device dead and returns the typed error.
func (f *FTL) markWornOut() error {
	f.wornOut = true
	return &wornOutError{retired: len(f.bad), spare: f.cfg.SpareBlocks}
}
