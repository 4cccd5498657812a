package ftl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
	"time"

	"repro/internal/nand"
)

// TestOOBRoundTrip checks the spare-area record survives encode/decode
// and that header corruption is detected, never silently accepted.
func TestOOBRoundTrip(t *testing.T) {
	f, _ := newTestFTL(t)
	recs := []oobRec{
		{kind: oobKindData, state: dataStateBase, seq: 1, a: 42, b: 0},
		{kind: oobKindData, state: dataStateTx, seq: 99, a: 7, b: 12345 | 99<<32},
		{kind: oobKindMeta, state: metaStateGroup, seq: 3, a: 2, b: 0xDEADBEEF | uint64(f.PageSize())<<32},
		{kind: oobKindMeta, state: metaStateChain, seq: 8, a: 5 | 2<<16 | 4<<32, b: 1},
	}
	for _, want := range recs {
		rec := encodeOOB(want)
		buf := rec[:]
		if got, want := binary.LittleEndian.Uint32(buf[28:]), crc32.ChecksumIEEE(buf[:28]); got != want {
			t.Fatalf("header CRC %#x, want the IEEE checksum %#x", got, want)
		}
		got, ok := decodeOOB(buf)
		if !ok {
			t.Fatalf("decodeOOB rejected valid record %+v", want)
		}
		if got != want {
			t.Errorf("round trip: got %+v want %+v", got, want)
		}
		for i := range buf {
			bad := make([]byte, len(buf))
			copy(bad, buf)
			bad[i] ^= 0xFF
			if _, ok := decodeOOB(bad); ok {
				t.Errorf("decodeOOB accepted record with byte %d corrupted", i)
			}
		}
	}
	if _, ok := decodeOOB(make([]byte, oobRecSize)); ok {
		t.Error("decodeOOB accepted an all-zero (never written) spare area")
	}
}

// The header checksum is a format on flash, the IEEE CRC-32 of the
// header bytes, not a convention encodeOOB and decodeOOB merely share
// (FuzzDecodeOOB would not see the two drift together): over random
// bytes of every length and alignment headerCRC is crc32.ChecksumIEEE.
func TestHeaderCRCIsIEEE(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 72)
	for n := 0; n <= 64; n++ {
		for round := 0; round < 16; round++ {
			rng.Read(buf)
			b := buf[round%8:][:n]
			if got, want := headerCRC(b), crc32.ChecksumIEEE(b); got != want {
				t.Fatalf("%d bytes at offset %d: headerCRC %#x, IEEE %#x", n, round%8, got, want)
			}
		}
	}
}

// writeAndBarrier commits a deterministic working set.
func writeAndBarrier(t *testing.T, f *FTL, lpns []LPN) {
	t.Helper()
	for _, lpn := range lpns {
		if err := f.Write(lpn, page(f, byte(0x30+lpn))); err != nil {
			t.Fatalf("Write lpn %d: %v", lpn, err)
		}
	}
	if err := f.Barrier(); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
}

func verifyPages(t *testing.T, f *FTL, lpns []LPN) {
	t.Helper()
	buf := make([]byte, f.PageSize())
	for _, lpn := range lpns {
		if err := f.Read(lpn, buf); err != nil {
			t.Fatalf("Read lpn %d: %v", lpn, err)
		}
		if !bytes.Equal(buf, page(f, byte(0x30+lpn))) {
			t.Errorf("lpn %d content mismatch after recovery", lpn)
		}
	}
}

// TestImageFastPathOnCleanCrash: with intact metadata, mount takes the
// image path and never scans.
func TestImageFastPathOnCleanCrash(t *testing.T) {
	f, stats := newTestFTL(t)
	lpns := []LPN{1, 5, 9, 13}
	writeAndBarrier(t, f, lpns)
	f.PowerCut()
	if err := f.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	info := f.LastRecovery()
	if info.Mode != RecoveryImage {
		t.Fatalf("recovery mode %v, want image (reason %q)", info.Mode, info.Reason)
	}
	if got := stats.ImageRecoveries.Load(); got != 1 {
		t.Errorf("ImageRecoveries = %d, want 1", got)
	}
	if got := stats.ScanRecoveries.Load(); got != 0 {
		t.Errorf("ScanRecoveries = %d, want 0", got)
	}
	verifyPages(t, f, lpns)
}

// TestScanRecoversAfterMetaDestruction: every persisted copy of each
// metadata structure is corrupted or destroyed outright; the OOB scan
// must still recover all barriered data, and the CRC framing must
// detect silent corruption (never accept it as the fast path).
func TestScanRecoversAfterMetaDestruction(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target string
		erase  bool
	}{
		{"map corrupted", "map", false},
		{"map destroyed", "map", true},
		{"pad chain corrupted", "l2pmap-pad", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, stats := newTestFTL(t)
			lpns := []LPN{0, 3, 7, 11, 200}
			writeAndBarrier(t, f, lpns)
			f.PowerCut()
			n, err := f.CorruptMeta(tc.target, tc.erase)
			if err != nil {
				t.Fatalf("CorruptMeta: %v", err)
			}
			if n == 0 {
				t.Fatal("CorruptMeta hit no pages")
			}
			if err := f.Restart(); err != nil {
				t.Fatalf("Restart: %v", err)
			}
			info := f.LastRecovery()
			if info.Mode != RecoveryScan {
				t.Fatalf("recovery mode %v, want scan", info.Mode)
			}
			if info.ScanPages != f.Chip().Config().TotalPages() {
				t.Errorf("scan visited %d pages, want %d", info.ScanPages, f.Chip().Config().TotalPages())
			}
			if !tc.erase && stats.MetaCRCFailures.Load() == 0 {
				t.Error("silent corruption was not detected by any CRC check")
			}
			if tc.erase && info.TornSkipped == 0 {
				t.Error("destroyed pages were not accounted as torn")
			}
			if stats.UncorrectableReads.Load() != 0 {
				t.Errorf("recovery reads leaked %d uncorrectable-read counts", stats.UncorrectableReads.Load())
			}
			verifyPages(t, f, lpns)
			// Self-healing: the next crash must take the fast path again.
			f.PowerCut()
			if err := f.Restart(); err != nil {
				t.Fatalf("second Restart: %v", err)
			}
			if mode := f.LastRecovery().Mode; mode != RecoveryImage {
				t.Errorf("post-heal recovery mode %v, want image (reason %q)", mode, f.LastRecovery().Reason)
			}
			verifyPages(t, f, lpns)
		})
	}
}

// TestScanPicksNewestChain: a slot rewritten twice leaves both chains
// physically on flash (the old one invalidated); when the mapping image
// is gone, the scan must deterministically pick the newer complete
// chain by base sequence number.
func TestScanPicksNewestChain(t *testing.T) {
	f, _ := newTestFTL(t)
	writeAndBarrier(t, f, []LPN{2, 4})
	v1 := bytes.Repeat([]byte{0xA1}, 100)
	v2 := bytes.Repeat([]byte{0xB2}, 900) // two pages
	if err := f.WriteMetaSlotData("testslot", v1, 1); err != nil {
		t.Fatalf("write v1: %v", err)
	}
	if err := f.WriteMetaSlotData("testslot", v2, 1); err != nil {
		t.Fatalf("write v2: %v", err)
	}
	f.PowerCut()
	if _, err := f.CorruptMeta("map", false); err != nil {
		t.Fatalf("CorruptMeta: %v", err)
	}
	if err := f.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if mode := f.LastRecovery().Mode; mode != RecoveryScan {
		t.Fatalf("recovery mode %v, want scan", mode)
	}
	if got := f.MetaSlotData("testslot"); !bytes.Equal(got, v2) {
		t.Errorf("scan recovered %d-byte payload, want the newer %d-byte version", len(got), len(v2))
	}
}

// TestScanFallsBackToOldChainOnTornWrite (the chain-replacement crash
// regression): a power cut tears the replacement chain mid-write, so
// the newest complete version on flash is the old one — recovery must
// return it, not the torn fragment and not garbage.
func TestScanFallsBackToOldChainOnTornWrite(t *testing.T) {
	f, _ := newTestFTL(t)
	writeAndBarrier(t, f, []LPN{2, 4})
	v1 := bytes.Repeat([]byte{0xC3}, 700) // two pages
	v2 := bytes.Repeat([]byte{0xD4}, 700)
	if err := f.WriteMetaSlotData("testslot", v1, 1); err != nil {
		t.Fatalf("write v1: %v", err)
	}
	// Cut power on the second page program of the v2 chain: the chain
	// is incomplete on flash and its pointer never flipped.
	f.Chip().ArmPowerCut(2)
	if err := f.WriteMetaSlotData("testslot", v2, 1); !errors.Is(err, nand.ErrPowerLost) {
		t.Fatalf("write v2: got %v, want power cut", err)
	}
	f.Chip().Restore()
	f.PowerCut()
	if _, err := f.CorruptMeta("map", false); err != nil {
		t.Fatalf("CorruptMeta: %v", err)
	}
	if err := f.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if mode := f.LastRecovery().Mode; mode != RecoveryScan {
		t.Fatalf("recovery mode %v, want scan", mode)
	}
	if got := f.MetaSlotData("testslot"); !bytes.Equal(got, v1) {
		t.Errorf("scan recovered %d-byte payload, want the old complete version", len(got))
	}
}

// TestScanHonorsCommitLog: transactional CoW pages are recovered only
// when their transaction is in the durable commit log, even when every
// mapping structure is destroyed.
func TestScanHonorsCommitLog(t *testing.T) {
	f, _ := newTestFTL(t)
	writeAndBarrier(t, f, []LPN{20})
	committed := page(f, 0xCC)
	uncommitted := page(f, 0xEE)
	if _, err := f.WriteRawTx(21, committed, 7); err != nil {
		t.Fatalf("WriteRawTx committed: %v", err)
	}
	if err := f.NoteCommittedTx(7); err != nil {
		t.Fatalf("NoteCommittedTx: %v", err)
	}
	if _, err := f.WriteRawTx(22, uncommitted, 8); err != nil {
		t.Fatalf("WriteRawTx uncommitted: %v", err)
	}
	f.PowerCut()
	if _, err := f.CorruptMeta("map", true); err != nil {
		t.Fatalf("CorruptMeta: %v", err)
	}
	if err := f.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if mode := f.LastRecovery().Mode; mode != RecoveryScan {
		t.Fatalf("recovery mode %v, want scan", mode)
	}
	if !f.TxCommitted(7) || f.TxCommitted(8) {
		t.Fatalf("commit log recovered wrong: tx7=%v tx8=%v", f.TxCommitted(7), f.TxCommitted(8))
	}
	buf := make([]byte, f.PageSize())
	if err := f.Read(21, buf); err != nil {
		t.Fatalf("Read committed: %v", err)
	}
	if !bytes.Equal(buf, committed) {
		t.Error("committed transactional write lost by scan recovery")
	}
	if err := f.Read(22, buf); err != nil {
		t.Fatalf("Read uncommitted: %v", err)
	}
	if bytes.Equal(buf, uncommitted) {
		t.Error("uncommitted transactional write resurrected by scan recovery")
	}
}

// TestScanSurvivesTotalMetaAnnihilation: every page of every meta ring
// block is destroyed — mapping image, chains, commit log, all copies.
// Base (barriered) data must still be fully recovered from data-page
// spare records alone.
func TestScanSurvivesTotalMetaAnnihilation(t *testing.T) {
	f, _ := newTestFTL(t)
	lpns := []LPN{0, 1, 2, 50, 51, 300}
	writeAndBarrier(t, f, lpns)
	f.PowerCut()
	chip := f.Chip()
	for _, blk := range f.metaBlocks {
		for pi := 0; pi < chip.Config().PagesPerBlock; pi++ {
			ppn := chip.PPNOf(blk, pi)
			if st, _ := chip.State(ppn); st != nand.PageFree {
				if err := chip.DestroyPage(ppn); err != nil {
					t.Fatalf("DestroyPage: %v", err)
				}
			}
		}
	}
	if err := f.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if mode := f.LastRecovery().Mode; mode != RecoveryScan {
		t.Fatalf("recovery mode %v, want scan", mode)
	}
	verifyPages(t, f, lpns)
	// And the device keeps working: new writes, barrier, clean restart.
	writeAndBarrier(t, f, []LPN{77})
	f.PowerCut()
	if err := f.Restart(); err != nil {
		t.Fatalf("post-heal Restart: %v", err)
	}
	verifyPages(t, f, append(lpns, 77))
}

// TestWornOutTypedError: spare-pool exhaustion surfaces as the typed
// worn-out state, matching both the new sentinel and the legacy
// device-full error for compatibility.
func TestWornOutTypedError(t *testing.T) {
	f, _ := newTestFTL(t)
	err := f.markWornOut()
	if !errors.Is(err, ErrWornOut) {
		t.Error("worn-out error does not match ErrWornOut")
	}
	if !errors.Is(err, ErrDeviceFull) {
		t.Error("worn-out error does not match legacy ErrDeviceFull")
	}
	if !f.WornOut() {
		t.Error("WornOut() false after markWornOut")
	}
}

// TestRecoveryDurationUsesSimulatedTime: the scan charges simulated
// read time for every page it visits, so Duration must be positive and
// larger than the image path's.
func TestRecoveryDurationUsesSimulatedTime(t *testing.T) {
	f, _ := newTestFTL(t)
	writeAndBarrier(t, f, []LPN{1, 2, 3})
	f.PowerCut()
	if err := f.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	imageDur := f.LastRecovery().Duration
	if imageDur <= 0 {
		t.Fatalf("image recovery duration %v, want > 0", imageDur)
	}
	writeAndBarrier(t, f, []LPN{4})
	f.PowerCut()
	if _, err := f.CorruptMeta("map", true); err != nil {
		t.Fatalf("CorruptMeta: %v", err)
	}
	if err := f.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	scanDur := f.LastRecovery().Duration
	if scanDur <= imageDur {
		t.Errorf("scan duration %v not larger than image duration %v", scanDur, imageDur)
	}
}

// TestRehomeMidChainKeepsEveryPageIntact pins metaProgram's re-entrancy
// rule. A content-bearing chain is written so that the ring frontier
// advances in the middle of it while the block the advance must clean
// holds pointed pages: cleaning re-homes them through nested metaProgram
// calls, which render into the same firmware-owned page the outer call
// uses. Rendered before the advance, the outer chain page would reach
// flash carrying a re-homed page's bytes under its own checksum. Both
// mount paths then verify every page: the image path reads each pointed
// page against its spare-record CRC, and a forced full scan re-derives
// the chains from nothing but those records.
func TestRehomeMidChainKeepsEveryPageIntact(t *testing.T) {
	f, _ := newTestFTL(t)
	ps, ppb := f.PageSize(), f.chip.Config().PagesPerBlock
	pad := func(until func() bool) {
		t.Helper()
		for i := 0; !until(); i++ {
			if i > 8*ppb {
				t.Fatal("ring frontier never reached the wanted position")
			}
			if err := f.WriteMetaSlot("pad", 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	payload := func(pages int, salt byte) []byte {
		p := make([]byte, pages*ps-ps/2)
		for i := range p {
			p[i] = byte(i/ps)*16 + salt + byte(i%7)
		}
		return p
	}

	// Pointed pages into ring block 2: a two-page slot chain and the map
	// groups of a barrier.
	pad(func() bool { return f.metaCur == 2 && f.metaPage >= 1 })
	keep := payload(2, 0x40)
	if err := f.WriteMetaSlotData("keep", keep, 1); err != nil {
		t.Fatal(err)
	}
	lpns := []LPN{1, 5, 9, 200}
	writeAndBarrier(t, f, lpns)
	if f.metaCur != 2 {
		t.Fatalf("set-up spilled out of ring block 2 (frontier in %d)", f.metaCur)
	}
	inBlock2 := func() (n int) {
		for _, tag := range f.metaTags[2] {
			if tag.live {
				n++
			}
		}
		return n
	}

	// Frontier to two pages before the end of ring block 0, then a
	// four-page chain: pages 0-1 fill block 0, page 2 advances into block
	// 1 and re-homes block 2's pointed pages ahead of itself.
	pad(func() bool { return f.metaCur == 0 && f.metaPage == ppb-2 })
	if inBlock2() < 3 {
		t.Fatalf("only %d pointed pages left in ring block 2; the advance would re-home nothing", inBlock2())
	}
	big := payload(4, 0x80)
	if err := f.WriteMetaSlotData("big", big, 1); err != nil {
		t.Fatal(err)
	}
	if f.metaCur != 1 || inBlock2() != 0 {
		t.Fatalf("frontier in ring block %d with %d pointed pages still in block 2: no mid-chain re-home happened", f.metaCur, inBlock2())
	}

	check := func(want RecoveryMode) {
		t.Helper()
		if err := f.Restart(); err != nil {
			t.Fatalf("Restart: %v", err)
		}
		info := f.LastRecovery()
		if info.Mode != want {
			t.Fatalf("recovery mode %v, want %v (reason %q)", info.Mode, want, info.Reason)
		}
		if got := f.MetaSlotData("big"); !bytes.Equal(got, big) {
			t.Errorf("%v mount: chain written across the advance reads back wrong", want)
		}
		if got := f.MetaSlotData("keep"); !bytes.Equal(got, keep) {
			t.Errorf("%v mount: re-homed chain reads back wrong", want)
		}
		verifyPages(t, f, lpns)
	}
	f.PowerCut()
	check(RecoveryImage) // every pointed page passed its payload CRC

	// Force the scan with a casualty that is none of the pages under
	// test; it must be the scan's only rejected page.
	if err := f.WriteMetaSlotData("canary", []byte("canary"), 1); err != nil {
		t.Fatal(err)
	}
	f.PowerCut()
	if _, err := f.CorruptMeta("canary", false); err != nil {
		t.Fatal(err)
	}
	check(RecoveryScan)
	if info := f.LastRecovery(); info.CRCFailures > 2 { // once per mount path
		t.Errorf("scan rejected %d pages, want only the canary", info.CRCFailures)
	}
}

// failNth is a chip charger that turns the n-th page operation charged
// after it is installed into a program status fail, and only that one.
type failNth struct {
	chip *nand.Chip
	n    int
}

func (c *failNth) ChargeUnit(unit int, d time.Duration) (start, end time.Duration) {
	c.n--
	switch c.n {
	case 1:
		c.chip.SetFaultModel(&nand.FaultModel{ProgramFailProb: 1})
	case 0:
		c.chip.SetFaultModel(nil)
	}
	end = c.chip.Clock().Advance(d)
	return end - d, end
}

func (c *failNth) ChargeAll(d time.Duration) (start, end time.Duration) {
	end = c.chip.Clock().Advance(d)
	return end - d, end
}

// TestRingRetirementMidChainKeepsTheChainUnderConstruction is the other
// way metaProgram re-enters: the third page of a four-page chain fails
// its program, the ring block is retired, and persisting the bad-block
// table runs a whole nested writeMetaSlot — chain, payload mirror, flip —
// before the outer chain's remaining pages are programmed. The outer
// call builds its chain and mirror in the spare storage; the nested one
// must not build in the same arrays, nor may the spare it leaves behind
// be anything a slot still points at.
func TestRingRetirementMidChainKeepsTheChainUnderConstruction(t *testing.T) {
	f, stats := newTestFTL(t)
	ps := f.PageSize()
	payload := func(pages int, salt byte) []byte {
		p := make([]byte, pages*ps-ps/2)
		for i := range p {
			p[i] = byte(i/ps)*16 + salt + byte(i%7)
		}
		return p
	}
	keep := payload(2, 0x40)
	if err := f.WriteMetaSlotData("keep", keep, 1); err != nil {
		t.Fatal(err)
	}
	lpns := []LPN{1, 5, 9, 200}
	writeAndBarrier(t, f, lpns)
	for f.metaPage != 2 { // room for three chains in this ring block
		if err := f.WriteMetaSlot("pad", 1); err != nil {
			t.Fatal(err)
		}
	}
	// Spare chain and mirror in place, big enough for what follows: a
	// slot's second write leaves its first chain and mirror there.
	for _, salt := range []byte{0x10, 0x20} {
		if err := f.WriteMetaSlotData("big", payload(4, salt), 1); err != nil {
			t.Fatal(err)
		}
	}
	if cap(f.spareChain) < 4 || cap(f.spareData) < 3*ps {
		t.Fatalf("spare storage not in place (chain cap %d, mirror cap %d)", cap(f.spareChain), cap(f.spareData))
	}
	if f.metaPage+4 > f.chip.Config().PagesPerBlock {
		t.Fatalf("frontier at page %d: the chain would advance the ring before its third page", f.metaPage)
	}

	ring, retired := f.metaBlocks[f.metaCur], stats.RetiredBlocks.Load()
	f.chip.SetCharger(&failNth{chip: f.chip, n: 3})
	big := payload(4, 0x80)
	if err := f.WriteMetaSlotData("big", big, 1); err != nil {
		t.Fatal(err)
	}
	f.chip.SetCharger(nil)
	if !f.bad[ring] || stats.RetiredBlocks.Load() != retired+1 {
		t.Fatalf("ring block %d not retired mid-chain (retired %d -> %d)", ring, retired, stats.RetiredBlocks.Load())
	}

	check := func(when string) {
		t.Helper()
		if got := f.MetaSlotData("big"); !bytes.Equal(got, big) {
			t.Errorf("%s: chain written across the retirement reads back wrong", when)
		}
		if got := f.MetaSlotData("keep"); !bytes.Equal(got, keep) {
			t.Errorf("%s: re-homed chain reads back wrong", when)
		}
		if !f.bad[ring] {
			t.Errorf("%s: retired ring block %d forgotten", when, ring)
		}
		chains := map[*nand.PPN]string{}
		for id, chain := range f.metaSlots {
			if len(chain) == 0 {
				continue
			}
			name := f.slotNames[id]
			if other, dup := chains[&chain[0]]; dup {
				t.Errorf("%s: slots %q and %q share a chain array", when, name, other)
			}
			chains[&chain[0]] = name
			if cap(f.spareChain) > 0 && &chain[0] == &f.spareChain[:1][0] {
				t.Errorf("%s: slot %q points at the spare chain", when, name)
			}
		}
		verifyPages(t, f, lpns)
	}
	check("after the write")
	// The pages programmed before the failure sit, invalidated, in the
	// retired block, so this mount may have to scan; either way every
	// slot must come back whole.
	f.PowerCut()
	if err := f.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	check("after " + f.LastRecovery().Mode.String() + " recovery")
	// And the spare left by all that is usable.
	if err := f.WriteMetaSlotData("big", keep, 1); err != nil {
		t.Fatal(err)
	}
	if got := f.MetaSlotData("keep"); !bytes.Equal(got, keep) {
		t.Error("writing through the spare left by the retirement damaged another slot's mirror")
	}
}

// TestRehomeOfTheBBTAcrossItsOwnPersist fails the program that re-homes
// the bad-block table's page. The retirement that answers the failure
// persists the table again, superseding the very page being re-homed,
// so when the retried copy lands the slot no longer points at its
// source: the copy is garbage, and the slot must keep the new chain.
func TestRehomeOfTheBBTAcrossItsOwnPersist(t *testing.T) {
	f, stats := newTestFTL(t)
	ppb, ring := f.chip.Config().PagesPerBlock, len(f.metaBlocks)
	pad := func(until func() bool) {
		t.Helper()
		for i := 0; !until(); i++ {
			if i > 2*ring*ppb {
				t.Fatal("ring frontier never reached the wanted position")
			}
			if err := f.WriteMetaSlot("pad", 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The table's page first in a ring block, alone pointed there, then
	// the frontier to the end of the block two ahead: the next program
	// advances and re-homes the table's page before anything else.
	pad(func() bool { return f.metaPage == ppb })
	if err := f.persistBBT(); err != nil {
		t.Fatal(err)
	}
	home := f.metaCur
	if f.metaPage != 1 {
		t.Fatalf("table at page %d of its ring block, want 0", f.metaPage-1)
	}
	pad(func() bool { return f.metaCur == (home+ring-2)%ring && f.metaPage == ppb })

	retired := stats.RetiredBlocks.Load()
	f.chip.SetFaultModel(&nand.FaultModel{ProgramFailProb: 1})
	f.chip.SetCharger(&failNth{chip: f.chip, n: 1})
	if err := f.WriteMetaSlot("pad", 1); err != nil {
		t.Fatal(err)
	}
	f.chip.SetCharger(nil)
	if stats.RetiredBlocks.Load() != retired+1 {
		t.Fatalf("no ring block retired (retired %d -> %d)", retired, stats.RetiredBlocks.Load())
	}
	if got, want := f.MetaSlotData("bbt"), f.serializeBBT(); !bytes.Equal(got, want) {
		t.Fatalf("bad-block table mirror %x, want %x", got, want)
	}
	checkMirrors(t, f, "after the failed re-home")
	f.PowerCut()
	if err := f.Restart(); err != nil {
		t.Fatal(err)
	}
	if info := f.LastRecovery(); info.Mode != RecoveryImage {
		t.Fatalf("recovery mode %v, want image (reason %q)", info.Mode, info.Reason)
	}
	if got, want := f.MetaSlotData("bbt"), f.serializeBBT(); !bytes.Equal(got, want) {
		t.Fatalf("after the mount the bad-block table reads %x, want %x", got, want)
	}
}

// checkMirrors holds every pointed meta page to the RAM mirror the
// modelled firmware re-homes it from: the cell is the mirror's page,
// zero-padded — a map group's page of the flash-resident table, a chain
// page its piece of the slot's payload, a pad blank — and its spare
// record is the one metaOOB encodes for the page's live tag and
// checksum. A re-home programs the cell it moves, so this is what makes
// that the same program as one rendered from the mirror. And no free
// page of the ring carries a live tag: a block's are cleared before it
// is erased, and a fresh block comes with none.
func checkMirrors(t *testing.T, f *FTL, when string) {
	t.Helper()
	ps := f.PageSize()
	buf, oob := make([]byte, ps), make([]byte, nand.OOBSize)
	check := func(ppn nand.PPN, mirror []byte, what string) {
		t.Helper()
		tag := f.tagOf(ppn)
		if tag == nil || !tag.live {
			t.Fatalf("%s: %s at ppn %d has no live tag", when, what, ppn)
		}
		want := make([]byte, ps)
		copy(want, mirror)
		if _, err := f.chip.ScanRead(ppn, buf, oob); err != nil {
			t.Fatalf("%s: %s at ppn %d: %v", when, what, ppn, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("%s: %s at ppn %d holds %x..., its mirror %x...", when, what, ppn, buf[:16], want[:16])
		}
		if rec := metaOOB(*tag, crc32.ChecksumIEEE(want)); !bytes.Equal(oob[:oobRecSize], rec[:]) {
			t.Fatalf("%s: %s at ppn %d has spare record %x, want %x", when, what, ppn, oob[:oobRecSize], rec)
		}
	}
	for g, ppn := range f.groupSlots {
		if ppn != nand.InvalidPPN {
			check(ppn, f.persisted.page(int64(g)), fmt.Sprintf("map group %d", g))
		}
	}
	for id, chain := range f.metaSlots {
		payload := f.metaData[id]
		for i, ppn := range chain {
			var piece []byte
			if lo := i * ps; lo < len(payload) {
				piece = payload[lo:min(lo+ps, len(payload))]
			}
			check(ppn, piece, fmt.Sprintf("slot %q page %d/%d", f.slotNames[id], i, len(chain)))
		}
	}
	for pos, blk := range f.metaBlocks {
		for pi, tag := range f.metaTags[pos] {
			if st, _ := f.chip.State(f.chip.PPNOf(blk, pi)); tag.live && st == nand.PageFree {
				t.Fatalf("%s: free page %d of ring block %d carries a live tag", when, pi, blk)
			}
		}
	}
}

// TestPointedMetaPagesMatchTheirMirrors checks the mirror invariant
// (checkMirrors) after every round of a churn of writes, barriers (whose
// pads lap the ring), content-bearing and pad slot writes and GC; right
// after a ring block is retired by a program fail, which re-homes its
// pointed pages out of a bad block; and after Restart down the image and
// the scan path alike.
func TestPointedMetaPagesMatchTheirMirrors(t *testing.T) {
	f, stats := newTestFTL(t)
	ps := f.PageSize()
	rng := rand.New(rand.NewSource(11))
	type version struct {
		ppn nand.PPN
		seq uint64
	}
	// pointed names every pointed page by what it is, with its address
	// and version: a page at a new address with the same sequence number
	// was re-homed.
	seq := func(ppn nand.PPN) uint64 {
		if tag := f.tagOf(ppn); tag != nil {
			return tag.seq
		}
		return 0
	}
	pointed := func() map[string]version {
		m := map[string]version{}
		for g, ppn := range f.groupSlots {
			if ppn != nand.InvalidPPN {
				m[fmt.Sprint("group ", g)] = version{ppn, seq(ppn)}
			}
		}
		for id, chain := range f.metaSlots {
			for i, ppn := range chain {
				m[fmt.Sprint(f.slotNames[id], " ", i)] = version{ppn, seq(ppn)}
			}
		}
		return m
	}
	laps, rehomed := 0, 0
	churn := func(rounds int, when string) {
		t.Helper()
		for r := 0; r < rounds; r++ {
			cur, before := f.metaCur, pointed()
			for range 24 {
				lpn := LPN(rng.Int63n(f.LogicalPages()))
				if err := f.Write(lpn, page(f, byte(rng.Intn(256)))); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(6) == 0 {
					if err := f.Barrier(); err != nil {
						t.Fatal(err)
					}
				}
			}
			switch r % 3 {
			case 0:
				blob := make([]byte, rng.Intn(3*ps))
				rng.Read(blob)
				if err := f.WriteMetaSlotData("blob", blob, 1+rng.Intn(2)); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := f.WriteMetaSlot("pad", 1+rng.Intn(3)); err != nil {
					t.Fatal(err)
				}
			}
			if f.metaCur < cur {
				laps++
			}
			after := pointed()
			for page, v := range before {
				if w, ok := after[page]; ok && w.ppn != v.ppn && w.seq == v.seq {
					rehomed++
				}
			}
			checkMirrors(t, f, fmt.Sprintf("%s, round %d", when, r))
		}
	}

	churn(60, "churn")
	if victims, _ := f.GCStats(); laps < 3 || rehomed == 0 || victims == 0 {
		t.Fatalf("churn lapped the ring %d times, re-homed %d pages, collected %d victims", laps, rehomed, victims)
	}
	t.Logf("churn lapped the ring %d times and re-homed %d pages", laps, rehomed)

	// A program fail on the ring retires the frontier block and re-homes
	// its pointed pages into a block drafted from the data pool. The
	// chain's first program fails: a later one would leave the chain
	// pointing at pages the retirement invalidated as garbage, untagged
	// (TestRingRetirementMidChainKeepsTheChainUnderConstruction). The
	// page is short, so metaProgram renders it in metaBuf, where the
	// retirement renders the bad-block table before the retry.
	ring, retired := f.metaBlocks[f.metaCur], stats.RetiredBlocks.Load()
	inRing := func() (n int) {
		for _, v := range pointed() {
			if f.chip.BlockOf(v.ppn) == ring {
				n++
			}
		}
		return n
	}
	if inRing() == 0 {
		t.Fatalf("ring block %d holds no pointed page to re-home", ring)
	}
	f.chip.SetFaultModel(&nand.FaultModel{ProgramFailProb: 1})
	f.chip.SetCharger(&failNth{chip: f.chip, n: 1})
	if err := f.WriteMetaSlotData("blob", bytes.Repeat([]byte{0x5C}, ps/2), 1); err != nil {
		t.Fatal(err)
	}
	f.chip.SetCharger(nil)
	if !f.bad[ring] || stats.RetiredBlocks.Load() != retired+1 {
		t.Fatalf("ring block %d not retired (retired %d -> %d)", ring, retired, stats.RetiredBlocks.Load())
	}
	if n := inRing(); n != 0 {
		t.Fatalf("%d pointed pages left in retired ring block %d", n, ring)
	}
	checkMirrors(t, f, "after the ring retirement")
	churn(12, "after the retirement")

	f.PowerCut()
	if err := f.Restart(); err != nil {
		t.Fatal(err)
	}
	if info := f.LastRecovery(); info.Mode != RecoveryImage {
		t.Fatalf("recovery mode %v, want image (reason %q)", info.Mode, info.Reason)
	}
	checkMirrors(t, f, "after an image mount")
	churn(12, "after the image mount")

	if err := f.WriteMetaSlotData("canary", []byte("canary"), 1); err != nil {
		t.Fatal(err)
	}
	f.PowerCut()
	if _, err := f.CorruptMeta("canary", false); err != nil {
		t.Fatal(err)
	}
	if err := f.Restart(); err != nil {
		t.Fatal(err)
	}
	if info := f.LastRecovery(); info.Mode != RecoveryScan {
		t.Fatalf("recovery mode %v, want scan", info.Mode)
	}
	checkMirrors(t, f, "after a scan mount")
	churn(12, "after the scan mount")
}
