//go:build !race

package ftl

import (
	"runtime"
	"testing"

	"repro/internal/nand"
)

// Meta programs take a map group's page from the table, render slot
// payload into a firmware-owned page, keep spare records on the stack and
// build chains and payload mirrors in the spare storage, so in steady
// state the commit path's meta writes allocate nothing — across ring
// advances, block erases and re-homing too: a re-home walks the block's
// pages and programs each live one from its own cell. Each measurement
// is of whole ring laps, so an allocation once per advance shows. (Not
// under -race: the race runtime allocates.)
func TestMetaProgramsAllocateNoPages(t *testing.T) {
	f, _ := newTestFTL(t)
	lap := f.chip.Config().PagesPerBlock * len(f.metaBlocks)
	if err := f.Write(3, page(f, 3)); err != nil {
		t.Fatal(err)
	}
	image := page(f, 0x5A)[:f.PageSize()/3]
	tid := uint64(0)
	for _, tc := range []struct {
		name string
		max  float64
		body func() error
	}{
		{"WriteMetaSlot pad", 0, func() error { return f.WriteMetaSlot("xl2p-housekeeping", 1) }},
		{"persistGroup", 0, func() error { return f.persistGroup(0) }},
		{"WriteMetaSlotData", 0, func() error { return f.WriteMetaSlotData("xl2p", image, 2) }},
		{"NoteCommittedTx", 1, func() error { tid++; return f.NoteCommittedTx(tid) }},
	} {
		laps := func() {
			for range lap {
				if err := tc.body(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := testing.AllocsPerRun(3, laps) / float64(lap); got > tc.max {
			t.Errorf("%s allocates %.3f objects per call, want at most %.0f", tc.name, got, tc.max)
		}
	}
}

// A steady-state overwrite, garbage collection included, allocates
// nothing: a GC copy is programmed straight from the victim's cell and
// the chip recycles the victim's page buffers. So do the other two
// callers of that copy-back, a unit drain and a data-block retirement —
// except for the retirement's bad-block table, a few small objects.
func TestOverwriteWithGCNoAllocs(t *testing.T) {
	f, _ := newTestFTL(t)
	data := page(f, 9)
	n := 0
	write := func() {
		n++
		if err := f.Write(LPN(n%64), data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*int(f.chip.Config().TotalPages()); i++ {
		write() // age to GC steady state: every block programmed once
	}
	if allocs := testing.AllocsPerRun(2000, write); allocs > 0.05 {
		t.Errorf("steady-state Write allocates %.2f objects per call, want ~0", allocs)
	}

	// Once the empty blocks are collected, the victims hold live pages,
	// and after a barrier those are the ones the flash-resident map points
	// at: each collection holds their group and settles it, reusing the
	// held list.
	for live := 0; live == 0; live, _ = f.chip.ValidPages(f.pickVictim()) {
		if err := f.collectOnce(); err != nil {
			t.Fatal(err)
		}
	}
	settled := 0
	collect := func() {
		write()
		if err := f.Barrier(); err != nil {
			t.Fatal(err)
		}
		image := f.groupSlots[0]
		if err := f.collectOnce(); err != nil {
			t.Fatal(err)
		}
		if f.groupSlots[0] != image {
			settled++
		}
	}
	if allocs := testing.AllocsPerRun(20, collect); allocs != 0 {
		t.Errorf("a steady-state barrier and collection allocate %.2f objects, want 0", allocs)
	}
	if settled == 0 {
		t.Fatal("no collection settled a held map group")
	}

	// Not a quarantine: the frontier keeps programming the unit, so every
	// drain finds pages to move.
	drain := func() {
		if err := f.drainUnit(1); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, drain); allocs != 0 {
		t.Errorf("a unit drain allocates %.2f objects per call, want 0", allocs)
	}

	// A retired block keeps its page buffers, so the chip needs slack in
	// its buffer pool, or the copies' programs carve new ones: trim most
	// of the working set and collect the blocks it leaves empty.
	for l := LPN(32); l < 64; l++ {
		if err := f.Unmap(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Barrier(); err != nil {
		t.Fatal(err)
	}
	for range 8 {
		if err := f.collectOnce(); err != nil {
			t.Fatal(err)
		}
	}
	moved := int64(0)
	retire := func() {
		for b := range nand.BlockNum(f.chip.Config().Blocks - MetaBlocks) {
			if live, _ := f.chip.ValidPages(b); live > 0 && !f.bad[b] && !(f.haveCur && f.cur == b) {
				before := f.stats.PageWrites.Load()
				if err := f.retireDataBlock(b); err != nil {
					t.Fatal(err)
				}
				moved += f.stats.PageWrites.Load() - before
				return
			}
		}
		t.Fatal("no data block holds live pages")
	}
	const retirements = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range retirements {
		retire()
	}
	runtime.ReadMemStats(&after)
	if moved < retirements {
		t.Fatalf("%d retirements relocated %d pages", retirements, moved)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / retirements; per >= uint64(f.PageSize()) {
		t.Errorf("a data-block retirement allocates %d bytes, want less than a page (%d)", per, f.PageSize())
	}
}

var oobSink [oobRecSize]byte

// A spare record is built on the caller's stack: headerCRC does not make
// it escape.
func TestSpareRecordsAllocateNothing(t *testing.T) {
	f, _ := newTestFTL(t)
	chain := metaTag{state: metaStateChain, slot: f.slotID("xl2p"), idx: 1, length: 3, seq: 9, payLen: 100}
	group := metaTag{state: metaStateGroup, group: 2, seq: 10, payLen: uint32(f.PageSize())}
	for name, build := range map[string]func(){
		"encodeOOB":     func() { oobSink = encodeOOB(oobRec{kind: oobKindData, state: dataStateTx, seq: 7, a: 3, b: 5}) },
		"metaOOB chain": func() { oobSink = metaOOB(chain, 0xDEADBEEF) },
		"metaOOB group": func() { oobSink = metaOOB(group, 0x12345678) },
	} {
		if allocs := testing.AllocsPerRun(100, build); allocs != 0 {
			t.Errorf("%s allocates %.0f objects per record, want 0", name, allocs)
		}
	}
}
