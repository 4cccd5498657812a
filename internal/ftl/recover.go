// Crash recovery: the two-tier mount hierarchy.
//
// Fast path (mountImage): every pointed-at metadata page — map group
// images and slot chains — is read back and verified end to end (spare
// record magic, header CRC, identity, sequence consistency, payload
// CRC) and the decoded content is adopted as the volatile state. Cost
// is one internal read per live meta page, the §5.4 recovery cost the
// paper measures in Table 5.
//
// Slow path (mountScan): taken on ANY fast-path integrity failure. One
// pass over every physical page of the device — ring, retired and free
// blocks included — collects data-page records and meta-chain pages
// from the spare areas, then rebuilds everything from first principles:
// the newest complete chain per slot wins by base sequence number, the
// committed-transaction log gates which transactional CoW pages count,
// and the L2P is the highest-sequence eligible version of every LPN.
// The rebuilt state is re-persisted (self-healing) so the next mount
// takes the fast path again.
//
// Scan-path semantics differ from the barrier contract in one
// deliberate way: base data writes are durable the moment they hit
// flash (their spare record is the ground truth), so a scan can recover
// MORE than the last barrier promised — never less. Trims whose pages
// were still covered by the persisted image are undone by a scan for
// the same reason.
//
// All recovery reads use ScanRead: quiet fault accounting (a
// deliberately destroyed page must not count as an escaped
// uncorrectable read), full page + spare in one transfer.
package ftl

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"repro/internal/nand"
)

// RecoveryMode identifies which mount path served a Restart.
type RecoveryMode uint8

const (
	// RecoveryNone means no recovery has happened yet.
	RecoveryNone RecoveryMode = iota
	// RecoveryImage is the fast path: the persisted mapping image and
	// slot chains all verified and were adopted directly.
	RecoveryImage
	// RecoveryScan is the slow path: a full-device OOB scan rebuilt the
	// tables after the fast path failed an integrity check.
	RecoveryScan
)

var recoveryModeNames = [...]string{RecoveryNone: "none", RecoveryImage: "image", RecoveryScan: "scan"}

func (m RecoveryMode) String() string {
	if int(m) < len(recoveryModeNames) {
		return recoveryModeNames[m]
	}
	return fmt.Sprintf("RecoveryMode(%d)", uint8(m))
}

// RecoveryInfo describes the last Restart: which path ran, why the
// scan was needed, what it cost in pages and simulated time.
type RecoveryInfo struct {
	Mode        RecoveryMode
	Reason      string        // first integrity failure that forced the scan
	ScanPages   int64         // physical pages visited by the scan pass
	TornSkipped int64         // unreadable (torn/destroyed) pages skipped
	CRCFailures int64         // pages rejected by CRC/identity checks
	Duration    time.Duration // simulated time the mount took
}

// LastRecovery reports how the most recent Restart recovered.
func (f *FTL) LastRecovery() RecoveryInfo { return f.lastRecovery }

// TimeRecovery sets the most recent recovery's Duration. A device
// recovers inside one command window, where the clock stands still, and
// reports the window's span here.
func (f *FTL) TimeRecovery(d time.Duration) { f.lastRecovery.Duration = d }

// Restart recovers the FTL after a power cut: first the fast image
// path, then — on any integrity failure — the full-device scan. Either
// way the ring invariant is restored, the reverse map is rebuilt and
// orphaned pages are swept, leaving the device ready for new traffic.
func (f *FTL) Restart() error {
	f.chip.Restore()
	if !f.powerFailed {
		return nil
	}
	f.powerFailed = false
	f.held = f.held[:0]
	f.resetHealth()
	start := f.chip.Clock().Now()
	info := RecoveryInfo{Mode: RecoveryImage}
	if err := f.mountImage(&info); err != nil {
		info.Mode = RecoveryScan
		info.Reason = err.Error()
		if serr := f.mountScan(&info); serr != nil {
			return serr
		}
		if f.stats != nil {
			f.stats.ScanRecoveries.Add(1)
		}
	} else if f.stats != nil {
		f.stats.ImageRecoveries.Add(1)
	}
	// A cut can interrupt the re-home that keeps the next ring block
	// clean; finishing it here restores the advance invariant.
	if err := f.cleanNextMetaBlock(); err != nil {
		return err
	}
	f.rebuildRmap()
	f.sweepOrphans()
	info.Duration = f.chip.Clock().Now() - start
	f.lastRecovery = info
	return nil
}

// metaIntegrityErr counts one rejected metadata page and returns the
// error that will become the scan Reason.
func (f *FTL) metaIntegrityErr(info *RecoveryInfo, format string, args ...any) error {
	info.CRCFailures++
	if f.stats != nil {
		f.stats.MetaCRCFailures.Add(1)
	}
	return fmt.Errorf(format, args...)
}

// mountImage verifies and adopts the persisted metadata: every pointed
// map-group page and every slot-chain page is read, its spare record
// and payload checksum verified, and the decoded contents replace the
// volatile tables. Any failure aborts with an error describing the
// first bad page; the caller falls back to the scan.
func (f *FTL) mountImage(info *RecoveryInfo) error {
	chipCfg := f.chip.Config()
	buf := make([]byte, chipCfg.PageSize)
	oob := make([]byte, nand.OOBSize)
	maxSeq := uint64(0)

	readMeta := func(ppn nand.PPN) (oobRec, error) {
		st, err := f.chip.ScanRead(ppn, buf, oob)
		if err != nil {
			return oobRec{}, f.metaIntegrityErr(info, "meta page %d unreadable: %v", ppn, err)
		}
		if st != nand.PageValid {
			return oobRec{}, f.metaIntegrityErr(info, "meta page %d is %v, want valid", ppn, st)
		}
		rec, ok := decodeOOB(oob)
		if !ok {
			return oobRec{}, f.metaIntegrityErr(info, "meta page %d spare record corrupt", ppn)
		}
		if rec.kind != oobKindMeta {
			return oobRec{}, f.metaIntegrityErr(info, "meta page %d tagged as data", ppn)
		}
		if crc32.ChecksumIEEE(buf[:chipCfg.PageSize]) != uint32(rec.b) {
			return oobRec{}, f.metaIntegrityErr(info, "meta page %d payload CRC mismatch", ppn)
		}
		if rec.seq > maxSeq {
			maxSeq = rec.seq
		}
		return rec, nil
	}

	// Map groups: decode every pointed group image into a fresh table.
	newMap := newMapTable(f.fullMapPages(), chipCfg.PageSize)
	for g, ppn := range f.groupSlots {
		if ppn == nand.InvalidPPN {
			continue
		}
		rec, err := readMeta(ppn)
		if err != nil {
			return err
		}
		if rec.state != metaStateGroup || rec.a != uint64(g) {
			return f.metaIntegrityErr(info, "meta page %d is not the image of map group %d", ppn, g)
		}
		if err := f.loadMapGroup(newMap, int64(g), buf); err != nil {
			return f.metaIntegrityErr(info, "map group %d: %v", g, err)
		}
	}

	// Slot chains: verify identity and sequence, reassemble payloads.
	newData := make([][]byte, len(f.metaData))
	for _, name := range sortedKeys(f.slotIDs) {
		id := f.slotIDs[name]
		chain := f.metaSlots[id]
		if len(chain) == 0 {
			continue
		}
		var payload []byte
		baseSeq := uint64(0)
		for i, ppn := range chain {
			rec, err := readMeta(ppn)
			if err != nil {
				return err
			}
			gotID := uint16(rec.a)
			gotIdx := int(rec.a>>16) & 0xFFFF
			gotLen := int(rec.a>>32) & 0xFFFF
			if rec.state != metaStateChain || gotID != id || gotIdx != i || gotLen != len(chain) {
				return f.metaIntegrityErr(info, "meta page %d is not page %d/%d of slot %q", ppn, i, len(chain), name)
			}
			if i == 0 {
				baseSeq = rec.seq
			} else if rec.seq != baseSeq+uint64(i) {
				return f.metaIntegrityErr(info, "slot %q page %d sequence %d breaks chain base %d", name, i, rec.seq, baseSeq)
			}
			payLen := int(rec.b >> 32)
			if payLen > chipCfg.PageSize {
				return f.metaIntegrityErr(info, "slot %q page %d claims %d payload bytes", name, i, payLen)
			}
			payload = append(payload, buf[:payLen]...)
		}
		if len(payload) > 0 {
			newData[id] = payload
		}
	}

	// Everything verified: adopt.
	copy(f.l2p.b, newMap.b)
	f.persisted = newMap
	clear(f.dirty)
	f.metaData = newData
	if id, ok := f.slotIDs["txlog"]; ok && newData[id] != nil {
		ranges, err := decodeTidRanges(newData[id])
		if err != nil {
			return f.metaIntegrityErr(info, "txlog payload: %v", err)
		}
		f.adoptCommitted(ranges)
	} else {
		f.committed, f.maxCommitted = nil, 0
	}
	if maxSeq >= f.seq {
		f.seq = maxSeq + 1
	}
	return nil
}

// adoptCommitted installs a recovered committed-transaction log.
func (f *FTL) adoptCommitted(ranges []tidRange) {
	f.committed = ranges
	f.maxCommitted = 0
	for _, r := range ranges {
		if r.hi > f.maxCommitted {
			f.maxCommitted = r.hi
		}
	}
}

// scanChainPage is one slot-chain page found by the scan.
type scanChainPage struct {
	slot        uint16
	baseSeq     uint64 // the chain's: the page's sequence number less idx
	idx, length int
	payload     []byte // the page's payload bytes, a copy
}

// Why readChainPage turned a scanned page down.
var (
	errNotChain    = errors.New("ftl: not a slot-chain page")
	errCorruptPage = errors.New("ftl: slot-chain page fails its payload checksum or padding")
)

// readChainPage reads one scanned meta page as a page of a slot chain.
// It fails with errNotChain for a record that is no chain page's, or
// whose fields no chain page's can be: a chain of length 0, an index
// past its length, a payload longer than the page, bits set past the
// length in field A. It fails with errCorruptPage for a page that does
// not match its record's payload checksum, or is not zero past its
// payload: a chain page is written as its piece of the payload,
// zero-padded.
func readChainPage(rec oobRec, page []byte) (scanChainPage, error) {
	if rec.kind != oobKindMeta || rec.state != metaStateChain {
		return scanChainPage{}, errNotChain
	}
	idx := int(rec.a>>16) & 0xFFFF
	length := int(rec.a>>32) & 0xFFFF
	payLen := int(rec.b >> 32)
	if length == 0 || idx >= length || payLen > len(page) || rec.a>>48 != 0 {
		return scanChainPage{}, errNotChain
	}
	if crc32.ChecksumIEEE(page) != uint32(rec.b) || slices.ContainsFunc(page[payLen:], func(b byte) bool { return b != 0 }) {
		return scanChainPage{}, errCorruptPage
	}
	return scanChainPage{
		slot: uint16(rec.a), baseSeq: rec.seq - uint64(idx),
		idx: idx, length: length, payload: bytes.Clone(page[:payLen]),
	}, nil
}

// scanDataPage is one valid data page found by the scan.
type scanDataPage struct {
	ppn   nand.PPN
	lpn   LPN
	seq   uint64
	state uint8
	tid   uint64
}

// mountScan rebuilds every table from the spare areas of the whole
// device. It is the last line of defense: it assumes nothing about the
// pointer state and succeeds as long as the flash holds one intact copy
// of each needed version.
func (f *FTL) mountScan(info *RecoveryInfo) error {
	chipCfg := f.chip.Config()
	buf := make([]byte, chipCfg.PageSize)
	oob := make([]byte, nand.OOBSize)

	// The old pointers are untrusted; drop them. Whatever pages they
	// referenced become unpointed garbage that the ring advance and the
	// orphan sweep clean up lazily.
	clear(f.metaSlots)
	for g := range f.groupSlots {
		f.groupSlots[g] = nand.InvalidPPN
	}
	for _, tags := range f.metaTags {
		clear(tags)
	}
	clear(f.metaData)
	clear(f.dirty) // the tables are rebuilt equal below

	var (
		data      []scanDataPage
		chains    = make(map[uint16]map[uint64][]scanChainPage) // slot id -> base seq -> pages
		markerMax uint64
		maxSeq    uint64
	)
	total := chipCfg.TotalPages()
	for p := int64(0); p < total; p++ {
		ppn := nand.PPN(p)
		st, err := f.chip.ScanRead(ppn, buf, oob)
		info.ScanPages++
		if f.stats != nil {
			f.stats.ScanPages.Add(1)
		}
		if err != nil {
			if errors.Is(err, nand.ErrUncorrectable) {
				info.TornSkipped++
				continue
			}
			return err
		}
		if st == nand.PageFree {
			continue
		}
		rec, ok := decodeOOB(oob)
		if !ok {
			if st == nand.PageValid {
				info.CRCFailures++
				if f.stats != nil {
					f.stats.MetaCRCFailures.Add(1)
				}
			}
			continue
		}
		if rec.seq > maxSeq {
			maxSeq = rec.seq
		}
		if rec.kind == oobKindData {
			// Only valid pages are candidate versions: an invalidated
			// data page was explicitly superseded or aborted.
			if st != nand.PageValid {
				continue
			}
			lpn := LPN(rec.a)
			if lpn < 0 || int64(lpn) >= f.cfg.LogicalPages {
				continue
			}
			data = append(data, scanDataPage{
				ppn: ppn, lpn: lpn, seq: rec.seq,
				state: rec.state, tid: rec.b & 0xFFFFFFFF,
			})
			if marker := rec.b >> 32; marker > markerMax {
				markerMax = marker
			}
			continue
		}
		// Meta pages. Group images are ignored: the per-page data
		// records are strictly fresher ground truth for the L2P. Chain
		// pages are collected whether valid or invalidated — a crash
		// between programming a new chain and its pointer flip leaves
		// the OLD (already invalidated... not yet) or the NEW chain as
		// the newest complete copy, and sequence arbitration below picks
		// the right one either way.
		cp, err := readChainPage(rec, buf[:chipCfg.PageSize])
		if err != nil {
			if err == errCorruptPage && st == nand.PageValid {
				info.CRCFailures++
				if f.stats != nil {
					f.stats.MetaCRCFailures.Add(1)
				}
			}
			continue
		}
		if chains[cp.slot] == nil {
			chains[cp.slot] = make(map[uint64][]scanChainPage)
		}
		chains[cp.slot][cp.baseSeq] = append(chains[cp.slot][cp.baseSeq], cp)
	}

	// Arbitrate slot chains: per slot, the complete chain with the
	// highest base sequence number is the current version.
	type slotWinner struct {
		length  int
		payload []byte
	}
	winners := make(map[string]slotWinner)
	for id, byBase := range chains {
		if id == 0 || int(id) >= len(f.slotNames) {
			continue // no slot this firmware knows
		}
		name := f.slotNames[id]
		bestSeq := uint64(0)
		found := false
		var best slotWinner
		for baseSeq, pages := range byBase {
			payload, length, ok := assembleChain(pages, chipCfg.PageSize)
			if !ok {
				continue
			}
			if !found || baseSeq > bestSeq {
				found, bestSeq = true, baseSeq
				best = slotWinner{length: length, payload: payload}
			}
		}
		if found {
			winners[name] = best
		}
	}

	// Committed-transaction set: the txlog slot is authoritative. If no
	// intact copy survived anywhere, fall back to the distributed
	// commit evidence in the data pages' spare records: every page
	// programmed after a commit carries the then-newest committed tid,
	// so the maximum observed marker is a sound commit ceiling for the
	// serial transaction histories the stack produces. (Limitation: a
	// commit with no single later program anywhere on flash leaves no
	// evidence and is recovered as in-flight.)
	if w, ok := winners["txlog"]; ok {
		ranges, err := decodeTidRanges(w.payload)
		if err != nil {
			return fmt.Errorf("ftl: scan recovered a txlog that does not parse: %w", err)
		}
		f.adoptCommitted(ranges)
	} else if markerMax > 0 {
		f.adoptCommitted([]tidRange{{lo: 1, hi: markerMax}})
	} else {
		f.adoptCommitted(nil)
	}

	// L2P: highest-sequence eligible version per logical page. Base
	// writes are always eligible; transactional CoW writes only if
	// their transaction is committed.
	bestSeq := make(map[LPN]uint64)
	bestPPN := make(map[LPN]nand.PPN)
	for _, d := range data {
		if d.state == dataStateTx && !f.TxCommitted(d.tid) {
			continue
		}
		if s, ok := bestSeq[d.lpn]; !ok || d.seq > s {
			bestSeq[d.lpn] = d.seq
			bestPPN[d.lpn] = d.ppn
		}
	}
	f.l2p.reset()
	f.persisted.reset()
	for lpn, ppn := range bestPPN {
		f.l2p.set(lpn, ppn)
		f.persisted.set(lpn, ppn)
	}
	if maxSeq >= f.seq {
		f.seq = maxSeq + 1
	}

	// Self-heal: re-persist everything fresh so pointers reference
	// valid pages again and the next mount takes the fast path. The
	// bad-block table and txlog are regenerated from the recovered RAM
	// state rather than replayed from their winning chains.
	for g := range f.groupSlots {
		page := f.persisted.page(int64(g))
		if bytes.Count(page, []byte{0xFF}) == len(page) {
			continue // nothing mapped in this group
		}
		if err := f.persistGroup(int64(g)); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(winners) {
		if name == "bbt" || name == "txlog" {
			continue
		}
		w := winners[name]
		var err error
		if w.payload != nil {
			err = f.WriteMetaSlotData(name, w.payload, w.length)
		} else {
			err = f.writeMetaSlot(f.slotIDs[name], nil, w.length)
		}
		if err != nil {
			return err
		}
	}
	if len(f.committed) > 0 {
		if err := f.WriteMetaSlotData("txlog", appendTidRanges(nil, f.committed), 1); err != nil {
			return err
		}
	}
	return f.persistBBT()
}

// assembleChain checks one candidate chain for completeness and
// reassembles its payload in page order. The chain must be one a write
// of its payload makes: every page agrees on the length, every index is
// there, and the payload tiles the pages as writeMetaSlot cuts it — whole
// pages, then at most one partial page, then empty ones.
func assembleChain(pages []scanChainPage, pageSize int) (payload []byte, length int, ok bool) {
	if len(pages) == 0 {
		return nil, 0, false
	}
	length = pages[0].length
	byIdx := make([]*scanChainPage, length)
	for i := range pages {
		p := &pages[i]
		if p.length != length || p.idx >= length {
			// Inconsistent lengths: pages from different versions
			// colliding on a base sequence cannot happen (sequences are
			// never reused), so treat as corrupt.
			return nil, 0, false
		}
		// Duplicates are legitimate: a cut between a ring re-home's copy
		// and the invalidation of its source leaves two identical pages
		// with the same sequence number. Either serves; two that differ
		// are corrupt, as above.
		if q := byIdx[p.idx]; q != nil && !bytes.Equal(q.payload, p.payload) {
			return nil, 0, false
		}
		byIdx[p.idx] = p
	}
	short := false
	for _, p := range byIdx {
		if p == nil || short && len(p.payload) > 0 {
			return nil, 0, false // incomplete chain (torn tail, destroyed page), or not one a write makes
		}
		short = len(p.payload) < pageSize
		payload = append(payload, p.payload...)
	}
	return payload, length, true
}

// rebuildRmap derives the reverse map from the recovered L2P.
func (f *FTL) rebuildRmap() {
	for i := range f.rmap {
		f.rmap[i] = -1
	}
	for lpn := range LPN(f.cfg.LogicalPages) {
		if ppn := f.l2p.get(lpn); ppn != nand.InvalidPPN {
			f.rmap[ppn] = lpn
		}
	}
}

// sweepOrphans invalidates every valid data page that no recovered
// table references — lost volatile writes, uncommitted CoW versions —
// unless the transactional hook still claims it.
func (f *FTL) sweepOrphans() {
	chipCfg := f.chip.Config()
	dataBlocks := chipCfg.Blocks - MetaBlocks
	for b := 0; b < dataBlocks; b++ {
		blk := nand.BlockNum(b)
		if f.isFree(blk) || f.bad[blk] || f.metaSet[blk] {
			continue
		}
		for pi := 0; pi < chipCfg.PagesPerBlock; pi++ {
			ppn := f.chip.PPNOf(blk, pi)
			st, _ := f.chip.State(ppn)
			if st != nand.PageValid {
				continue
			}
			if f.rmap[ppn] == -1 && (f.hook == nil || !f.hook.Live(ppn)) {
				_ = f.discard(ppn)
			}
		}
	}
}

// PageSeq reports the version sequence number recorded in a page's
// spare record, for layered recovery logic that must rank two versions
// of the same logical content (e.g. a recovered X-L2P row against the
// mapping the scan adopted). Returns false for free, unreadable or
// record-less pages. The read is quiet: it charges a page read but
// never counts as a host fault.
func (f *FTL) PageSeq(ppn nand.PPN) (uint64, bool) {
	chipCfg := f.chip.Config()
	buf := make([]byte, chipCfg.PageSize)
	oob := make([]byte, nand.OOBSize)
	st, err := f.chip.ScanRead(ppn, buf, oob)
	if err != nil || st == nand.PageFree {
		return 0, false
	}
	rec, ok := decodeOOB(oob)
	if !ok {
		return 0, false
	}
	return rec.seq, true
}

// CorruptMeta damages every currently persisted copy of a metadata
// structure, for torture and the recovery benchmark. target selects
// what to hit: "map" (every pointed map-group image page), or a slot
// name ("bbt", "xl2p", "txlog", ...). With erase=false the pages are
// silently bit-flipped (payload and spare alternating) — readable,
// ECC-clean, catchable only by the CRC framing; with erase=true the
// pages are destroyed outright (never readable again). Returns how
// many pages were hit. Usable while the device is powered off.
func (f *FTL) CorruptMeta(target string, erase bool) (int, error) {
	var pages []nand.PPN
	switch target {
	case "map":
		for _, ppn := range f.groupSlots {
			if ppn != nand.InvalidPPN {
				pages = append(pages, ppn)
			}
		}
	default:
		var chain []nand.PPN
		if id, ok := f.slotIDs[target]; ok {
			chain = f.metaSlots[id]
		}
		if chain == nil {
			return 0, fmt.Errorf("%w: no pages to corrupt for %q", ErrBadMetaSlot, target)
		}
		pages = append(pages, chain...)
	}
	n := 0
	for i, ppn := range pages {
		var err error
		switch {
		case erase:
			err = f.chip.DestroyPage(ppn)
		case i%2 == 0:
			err = f.chip.CorruptOOB(ppn, 4)
		default:
			err = f.chip.CorruptPage(ppn, 8)
		}
		if err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
