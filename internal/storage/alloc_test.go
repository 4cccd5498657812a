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

// Untraced, the attribution of a command's NAND work costs only plain
// stores: a write carrying a session and request, and a barrier whose
// map-group flush runs through metaProgram with its origin set and
// restored on the chip, allocate nothing.
func TestUntracedAttributionAllocatesNothing(t *testing.T) {
	d := newDev(t, false)
	w := &ncq.Request{Op: ncq.OpWrite, Data: devPage(d, 0x7E), Sess: 9, Req: 7}
	b := &ncq.Request{Op: ncq.OpBarrier, Sess: 9, Req: 7}
	flushes := d.FlashStats().Snapshot().PageWrites
	round := func() {
		w.LPN = (w.LPN + 1) % 8
		if err := d.Queue().SubmitWait(w); err != nil {
			t.Fatal(err)
		}
		if err := d.Queue().SubmitWait(b); err != nil {
			t.Fatal(err)
		}
	}
	for range 64 {
		round()
	}
	if d.FlashStats().Snapshot().PageWrites-flushes <= 64 {
		t.Fatal("set-up: the barriers flushed no map groups")
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("a write and a barrier allocate %.1f objects per round, want 0", allocs)
	}
}
