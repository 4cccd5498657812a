//go:build !race

package ftl

import "testing"

// Meta programs take a map group's page from the table, render slot
// payload into a firmware-owned page, keep spare records on the stack and
// build chains and payload mirrors in the spare storage, so in steady
// state the commit path's meta writes allocate nothing — across ring
// advances, block erases and re-homing too (each measurement laps the
// ring several times; what a re-home allocates rounds to nothing per
// call). (Not under -race: the race runtime allocates.)
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
		run := func() {
			if err := tc.body(); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(3*lap, run); got > tc.max {
			t.Errorf("%s allocates %.0f objects per call, want at most %.0f", tc.name, got, tc.max)
		}
	}
}

// A steady-state overwrite, garbage collection included, allocates
// nothing: the copy-back buffer is the FTL's and the chip recycles the
// victim's page buffers.
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
}
