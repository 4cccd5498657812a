//go:build !race

package storage

import (
	"runtime"
	"testing"

	"repro/internal/ncq"
	"repro/internal/simclock"
)

// On a young device — no data block collected yet, so no erase hands
// page buffers back — the page a round supersedes gives its payload
// buffer to the next round's program. A warm round of overwrites over a
// fixed page set plus its barrier (baseline) or commit (X-FTL) therefore
// allocates no page payloads: what it allocates at all is the chip's
// spare records, which stay with their pages until erase, a slab per
// block's worth of programs. (Not under -race: the race runtime
// allocates.)
func TestYoungDeviceOverwriteRoundsAllocateNoPages(t *testing.T) {
	for _, transactional := range []bool{false, true} {
		name := map[bool]string{false: "baseline", true: "xftl"}[transactional]
		t.Run(name, func(t *testing.T) {
			d, err := New(OpenSSD(), simclock.New(), Options{Transactional: transactional})
			if err != nil {
				t.Fatal(err)
			}
			data := devPage(d, 0x3C)
			const pages = 8
			tid := uint64(0)
			round := func() {
				tid++
				for lpn := range int64(pages) {
					r := ncq.Request{Op: ncq.OpWrite, LPN: lpn, Data: data}
					if transactional {
						r.Op, r.TID = ncq.OpWriteTx, tid
					}
					if err := do(d, r); err != nil {
						t.Fatal(err)
					}
				}
				r := ncq.Request{Op: ncq.OpBarrier}
				if transactional {
					r = ncq.Request{Op: ncq.OpCommit, TID: tid}
				}
				if err := do(d, r); err != nil {
					t.Fatal(err)
				}
			}
			for range 8 {
				round() // warm: the first superseded versions, the map and X-L2P state
			}
			const rounds = 64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range rounds {
				round()
			}
			runtime.ReadMemStats(&after)
			if free := d.FTL().FreeBlockCount(); free < d.prof.Nand.Blocks/2 {
				t.Fatalf("%d free blocks left: the device is not young", free)
			}
			if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per >= uint64(d.PageSize()) {
				t.Errorf("a round of %d overwrites allocates %d bytes, want less than a page (%d)", pages, per, d.PageSize())
			}
		})
	}
}
