//go:build !race

package ftl

import (
	"runtime"
	"testing"
)

// bytesPerRun reports the mean heap bytes one call of f allocates.
func bytesPerRun(runs int, f func()) float64 {
	f() // warm up
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / float64(runs)
}

// Meta programs render into firmware-owned pages and spare records live
// on the stack, so neither a content-free pad nor a map-group flush
// allocates anything page-sized — across ring advances, block erases and
// re-homing too (the runs below lap the ring several times). (Not under
// -race: the race runtime allocates.)
func TestMetaProgramsAllocateNoPages(t *testing.T) {
	f, _ := newTestFTL(t)
	lap := f.chip.Config().PagesPerBlock * len(f.metaBlocks)
	if err := f.Write(3, page(f, 3)); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]func(){
		"WriteMetaSlot pad": func() {
			if err := f.WriteMetaSlot("xl2p-housekeeping", 1); err != nil {
				t.Fatal(err)
			}
		},
		"persistGroup": func() {
			if err := f.persistGroup(0); err != nil {
				t.Fatal(err)
			}
		},
	} {
		if got := bytesPerRun(3*lap, body); got >= float64(f.PageSize()) {
			t.Errorf("%s allocates %.0f bytes per call, want less than a page (%d)", name, got, f.PageSize())
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
