package ftl

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/simclock"
)

func testChipConfig() nand.Config {
	return nand.Config{
		Blocks:        32,
		PagesPerBlock: 16,
		PageSize:      512,
		ReadLatency:   10 * time.Microsecond,
		ProgLatency:   100 * time.Microsecond,
		EraseLatency:  time.Millisecond,
	}
}

func newTestFTL(t *testing.T) (*FTL, *metrics.FlashCounters) {
	t.Helper()
	stats := &metrics.FlashCounters{}
	chip, err := nand.New(testChipConfig(), simclock.New(), stats)
	if err != nil {
		t.Fatalf("nand.New: %v", err)
	}
	f, err := New(chip, DefaultConfig(testChipConfig()), stats)
	if err != nil {
		t.Fatalf("ftl.New: %v", err)
	}
	return f, stats
}

func page(f *FTL, fill byte) []byte {
	d := make([]byte, f.PageSize())
	for i := range d {
		d[i] = fill
	}
	return d
}

func TestNewRejectsBadConfigs(t *testing.T) {
	chip, _ := nand.New(testChipConfig(), simclock.New(), nil)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero logical", Config{LogicalPages: 0}},
		{"oversubscribed", Config{LogicalPages: 1 << 20}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(chip, tc.cfg, nil); err == nil {
				t.Error("New accepted invalid config")
			}
		})
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f, _ := newTestFTL(t)
	data := page(f, 0x5A)
	if err := f.Write(7, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, f.PageSize())
	if err := f.Read(7, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Error("read back mismatch")
	}
}

func TestReadUnmappedReturnsZeros(t *testing.T) {
	f, stats := newTestFTL(t)
	buf := page(f, 0xFF)
	before := stats.Snapshot()
	if err := f.Read(3, buf); err != nil {
		t.Fatalf("Read unmapped: %v", err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unmapped read returned nonzero data")
		}
	}
	if d := stats.Snapshot().Sub(before); d.PageReads != 0 {
		t.Errorf("unmapped read touched flash: %v", d)
	}
}

func TestOverwriteInvalidatesOld(t *testing.T) {
	f, _ := newTestFTL(t)
	if err := f.Write(1, page(f, 1)); err != nil {
		t.Fatal(err)
	}
	old := f.Mapping(1)
	if err := f.Write(1, page(f, 2)); err != nil {
		t.Fatal(err)
	}
	if f.Mapping(1) == old {
		t.Error("overwrite did not move the page (not copy-on-write)")
	}
	st, _ := f.Chip().State(old)
	if st != nand.PageInvalid {
		t.Errorf("old page state = %v, want invalid", st)
	}
	buf := make([]byte, f.PageSize())
	if err := f.Read(1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Errorf("read returned old version: %d", buf[0])
	}
}

func TestLPNRangeChecks(t *testing.T) {
	f, _ := newTestFTL(t)
	if err := f.Write(LPN(f.LogicalPages()), page(f, 0)); !errors.Is(err, ErrLPNRange) {
		t.Errorf("write past capacity = %v, want ErrLPNRange", err)
	}
	if err := f.Read(-1, make([]byte, f.PageSize())); !errors.Is(err, ErrLPNRange) {
		t.Errorf("read negative = %v, want ErrLPNRange", err)
	}
}

func TestUnmapThenReadZeros(t *testing.T) {
	f, _ := newTestFTL(t)
	if err := f.Write(5, page(f, 9)); err != nil {
		t.Fatal(err)
	}
	if err := f.Unmap(5); err != nil {
		t.Fatal(err)
	}
	buf := page(f, 0xFF)
	if err := f.Read(5, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Error("read after unmap returned stale data")
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	f, stats := newTestFTL(t)
	// Overwrite a small working set far more times than raw capacity:
	// without GC the device would run out of free blocks.
	totalWrites := int(testChipConfig().TotalPages()) * 3
	for i := 0; i < totalWrites; i++ {
		lpn := LPN(i % 32)
		if err := f.Write(lpn, page(f, byte(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if stats.Snapshot().GCRuns == 0 {
		t.Error("GC never ran despite heavy overwrites")
	}
	// All 32 pages must still read their latest content.
	buf := make([]byte, f.PageSize())
	for l := 0; l < 32; l++ {
		want := byte(totalWrites - 32 + l)
		if err := f.Read(LPN(l), buf); err != nil {
			t.Fatalf("read lpn %d: %v", l, err)
		}
		if buf[0] != want {
			t.Errorf("lpn %d = %d, want %d (GC corrupted mapping)", l, buf[0], want)
		}
	}
}

func TestGCPreservesColdData(t *testing.T) {
	f, _ := newTestFTL(t)
	// Cold data written once...
	for l := 100; l < 140; l++ {
		if err := f.Write(LPN(l), page(f, byte(l))); err != nil {
			t.Fatal(err)
		}
	}
	// ...then hot churn elsewhere to force GC over the cold blocks.
	for i := 0; i < int(testChipConfig().TotalPages())*2; i++ {
		if err := f.Write(LPN(i%16), page(f, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, f.PageSize())
	for l := 100; l < 140; l++ {
		if err := f.Read(LPN(l), buf); err != nil {
			t.Fatalf("read cold lpn %d: %v", l, err)
		}
		if buf[0] != byte(l) {
			t.Errorf("cold lpn %d corrupted: got %d", l, buf[0])
		}
	}
}

func TestBarrierPersistsMappings(t *testing.T) {
	f, _ := newTestFTL(t)
	if err := f.Write(3, page(f, 42)); err != nil {
		t.Fatal(err)
	}
	if err := f.Barrier(); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	f.PowerCut()
	if err := f.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	buf := make([]byte, f.PageSize())
	if err := f.Read(3, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 42 {
		t.Errorf("after crash+restart lpn 3 = %d, want 42", buf[0])
	}
}

func TestCrashLosesUnflushedWrites(t *testing.T) {
	f, _ := newTestFTL(t)
	if err := f.Write(3, page(f, 1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Barrier(); err != nil {
		t.Fatal(err)
	}
	// Overwrite without a barrier: the mapping update is volatile.
	if err := f.Write(3, page(f, 2)); err != nil {
		t.Fatal(err)
	}
	f.PowerCut()
	if err := f.Restart(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, f.PageSize())
	if err := f.Read(3, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Errorf("after crash lpn 3 = %d, want the barrier-covered version 1", buf[0])
	}
}

func TestCrashAfterGCKeepsPersistedData(t *testing.T) {
	f, _ := newTestFTL(t)
	// Persist a cold page, then churn hard enough that GC relocates it,
	// then crash without another explicit barrier.
	if err := f.Write(200, page(f, 77)); err != nil {
		t.Fatal(err)
	}
	if err := f.Barrier(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(testChipConfig().TotalPages())*2; i++ {
		if err := f.Write(LPN(i%16), page(f, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	f.PowerCut()
	if err := f.Restart(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, f.PageSize())
	if err := f.Read(200, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 77 {
		t.Errorf("persisted cold page lost after GC+crash: got %d, want 77", buf[0])
	}
}

func TestWriteRawDoesNotChangeMapping(t *testing.T) {
	f, _ := newTestFTL(t)
	if err := f.Write(9, page(f, 1)); err != nil {
		t.Fatal(err)
	}
	committed := f.Mapping(9)
	raw, err := f.WriteRaw(9, page(f, 2))
	if err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	if f.Mapping(9) != committed {
		t.Error("WriteRaw changed the committed mapping")
	}
	buf := make([]byte, f.PageSize())
	if err := f.Read(9, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Errorf("committed read = %d, want 1", buf[0])
	}
	if err := f.ReadPPN(raw, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Errorf("raw read = %d, want 2", buf[0])
	}
	// Mapping the raw page promotes it.
	if err := f.Map(9, raw); err != nil {
		t.Fatal(err)
	}
	if err := f.Read(9, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Errorf("after Map read = %d, want 2", buf[0])
	}
}

func TestInvalidatePPNRefusesMappedPage(t *testing.T) {
	f, _ := newTestFTL(t)
	if err := f.Write(4, page(f, 1)); err != nil {
		t.Fatal(err)
	}
	if err := f.InvalidatePPN(f.Mapping(4)); err == nil {
		t.Error("InvalidatePPN on a mapped page succeeded")
	}
}

func TestInvalidatePPNReclaimsRawPage(t *testing.T) {
	f, _ := newTestFTL(t)
	raw, err := f.WriteRaw(4, page(f, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InvalidatePPN(raw); err != nil {
		t.Fatalf("InvalidatePPN: %v", err)
	}
	st, _ := f.Chip().State(raw)
	if st != nand.PageInvalid {
		t.Errorf("raw page state = %v, want invalid", st)
	}
}

func TestMetaSlotRoundTrip(t *testing.T) {
	f, stats := newTestFTL(t)
	before := stats.Snapshot()
	if err := f.WriteMetaSlot("xl2p", 2); err != nil {
		t.Fatalf("WriteMetaSlot: %v", err)
	}
	if d := stats.Snapshot().Sub(before); d.PageWrites != 2 {
		t.Errorf("meta slot write cost %d pages, want 2", d.PageWrites)
	}
	if len(f.metaSlots[f.slotIDs["xl2p"]]) == 0 {
		t.Error("slot not recorded")
	}
	if err := f.WriteMetaSlot("xl2p", 0); err != nil {
		t.Fatal(err)
	}
	if len(f.metaSlots[f.slotIDs["xl2p"]]) > 0 {
		t.Error("slot not dropped")
	}
}

func TestMetaRingRecycles(t *testing.T) {
	f, _ := newTestFTL(t)
	// Write far more meta pages than the meta region holds; the ring
	// must recycle without error and keep the current slot alive.
	cfg := testChipConfig()
	total := cfg.PagesPerBlock * MetaBlocks * 3
	for i := 0; i < total; i++ {
		if err := f.WriteMetaSlot("xl2p", 1); err != nil {
			t.Fatalf("meta write %d: %v", i, err)
		}
	}
	if len(f.metaSlots[f.slotIDs["xl2p"]]) == 0 {
		t.Error("slot lost during ring recycling")
	}
}

func TestBarrierIsIdempotentWhenClean(t *testing.T) {
	f, stats := newTestFTL(t)
	if err := f.Write(1, page(f, 1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Barrier(); err != nil {
		t.Fatal(err)
	}
	before := stats.Snapshot()
	if err := f.Barrier(); err != nil {
		t.Fatal(err)
	}
	if d := stats.Snapshot().Sub(before); d.PageWrites != 0 {
		t.Errorf("clean barrier wrote %d pages, want 0", d.PageWrites)
	}
}

func TestGCValidityStats(t *testing.T) {
	f, _ := newTestFTL(t)
	for i := 0; i < int(testChipConfig().TotalPages())*2; i++ {
		if err := f.Write(LPN(i%64), page(f, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	victims, validity := f.GCStats()
	if victims == 0 {
		t.Fatal("no GC recorded")
	}
	if validity < 0 || validity > 1 {
		t.Errorf("validity = %f out of [0,1]", validity)
	}
	f.ResetGCStats()
	if v, _ := f.GCStats(); v != 0 {
		t.Error("ResetGCStats did not zero counters")
	}
}

// Property: under arbitrary interleavings of writes, overwrites, unmaps
// and barriers, every mapped logical page reads back the last value
// written to it.
func TestPropertyLinearizedContents(t *testing.T) {
	f, _ := newTestFTL(t)
	shadow := map[LPN]byte{}
	rng := rand.New(rand.NewSource(42))
	check := func() bool {
		buf := make([]byte, f.PageSize())
		for lpn, want := range shadow {
			if err := f.Read(lpn, buf); err != nil {
				return false
			}
			if buf[0] != want {
				return false
			}
		}
		return true
	}
	fn := func(ops []uint16) bool {
		for _, op := range ops {
			lpn := LPN(op % 50)
			switch (op / 50) % 4 {
			case 0, 1: // write (twice as likely)
				fill := byte(rng.Intn(256))
				if err := f.Write(lpn, page(f, fill)); err != nil {
					return false
				}
				shadow[lpn] = fill
			case 2: // unmap
				if err := f.Unmap(lpn); err != nil {
					return false
				}
				delete(shadow, lpn)
			case 3: // barrier
				if err := f.Barrier(); err != nil {
					return false
				}
			}
		}
		return check()
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: crash + restart always recovers exactly the state as of the
// last barrier.
func TestPropertyCrashRecoversBarrierState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 10; round++ {
		stats := &metrics.FlashCounters{}
		chip, _ := nand.New(testChipConfig(), simclock.New(), stats)
		f, err := New(chip, DefaultConfig(testChipConfig()), stats)
		if err != nil {
			t.Fatal(err)
		}
		durable := map[LPN]byte{}
		volatileState := map[LPN]byte{}
		nOps := 50 + rng.Intn(200)
		for i := 0; i < nOps; i++ {
			lpn := LPN(rng.Intn(40))
			switch rng.Intn(5) {
			case 0, 1, 2:
				fill := byte(rng.Intn(256))
				if err := f.Write(lpn, page(f, fill)); err != nil {
					t.Fatal(err)
				}
				volatileState[lpn] = fill
			case 3:
				if err := f.Unmap(lpn); err != nil {
					t.Fatal(err)
				}
				delete(volatileState, lpn)
			case 4:
				if err := f.Barrier(); err != nil {
					t.Fatal(err)
				}
				durable = map[LPN]byte{}
				for k, v := range volatileState {
					durable[k] = v
				}
			}
		}
		f.PowerCut()
		if err := f.Restart(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, f.PageSize())
		for lpn, want := range durable {
			if err := f.Read(lpn, buf); err != nil {
				t.Fatalf("round %d: read %d: %v", round, lpn, err)
			}
			if buf[0] != want {
				t.Fatalf("round %d: lpn %d = %d, want %d", round, lpn, buf[0], want)
			}
		}
	}
}

// TestPowerCutDuringGCRelocation sweeps an op-indexed power cut across
// the garbage-collection window: the cut trips between or inside the
// victim's page relocations (reads, copy programs, map-group flushes,
// the final erase). After restart, every page whose mapping was
// barriered must read back intact from its old or relocated location,
// and the FTL must accept new traffic.
func TestPowerCutDuringGCRelocation(t *testing.T) {
	for arm := int64(1); arm <= 12; arm++ {
		f, stats := newTestFTL(t)
		want := map[LPN]byte{}
		n := f.LogicalPages()
		for l := int64(0); l < n; l++ {
			b := byte(l)
			if err := f.Write(LPN(l), page(f, b)); err != nil {
				t.Fatalf("arm=%d: fill %d: %v", arm, l, err)
			}
			want[LPN(l)] = b
		}
		// Overwrite every other page so GC victims stay half valid and
		// must relocate the surviving half.
		for l := int64(0); l < n; l += 2 {
			b := byte(l) ^ 0xff
			if err := f.Write(LPN(l), page(f, b)); err != nil {
				t.Fatalf("arm=%d: overwrite %d: %v", arm, l, err)
			}
			want[LPN(l)] = b
		}
		if err := f.Barrier(); err != nil {
			t.Fatalf("arm=%d: Barrier: %v", arm, err)
		}
		gcBefore := stats.GCRuns.Load()
		f.Chip().ArmPowerCut(arm)
		var err error
		for i := 0; i < 100 && err == nil; i++ {
			err = f.collectOnce()
		}
		if err == nil {
			t.Fatalf("arm=%d: armed power cut never tripped GC", arm)
		}
		if !errors.Is(err, nand.ErrPowerLost) {
			t.Fatalf("arm=%d: GC failed with %v, want power loss", arm, err)
		}
		if stats.GCRuns.Load() == gcBefore {
			t.Fatalf("arm=%d: cut tripped outside any GC run", arm)
		}
		f.Chip().Restore()
		f.PowerCut()
		if err := f.Restart(); err != nil {
			t.Fatalf("arm=%d: Restart: %v", arm, err)
		}
		buf := make([]byte, f.PageSize())
		for lpn, wb := range want {
			if err := f.Read(lpn, buf); err != nil {
				t.Fatalf("arm=%d: read %d after restart: %v", arm, lpn, err)
			}
			if buf[0] != wb {
				t.Fatalf("arm=%d: lpn %d = %d after restart, want %d", arm, lpn, buf[0], wb)
			}
		}
		// The recovered FTL still takes writes and collects garbage.
		if err := f.Write(5, page(f, 77)); err != nil {
			t.Fatalf("arm=%d: write after restart: %v", arm, err)
		}
		if err := f.Read(5, buf); err != nil || buf[0] != 77 {
			t.Fatalf("arm=%d: readback after restart: %v (got %d)", arm, err, buf[0])
		}
	}
}

// A GC copy whose destination program fails retires the frontier block
// while the copy is in flight: the retirement relocates that block's live
// pages — copy-backs nested inside the outer one — and the outer copy
// then retries from the same source cell. Every page, moved at either
// level or not at all, must read back byte-identical with its original
// spare record, sequence number included.
func TestGCCopyProgramFailKeepsPagesAndRecords(t *testing.T) {
	f, stats := newTestFTL(t)
	ppb := f.chip.Config().PagesPerBlock
	lpns := LPN(3 * ppb)
	for l := range lpns {
		if err := f.Write(l, page(f, byte(l))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite most of the first block: it becomes the greedy victim, and
	// the new versions sit live in the frontier block.
	for l := range LPN(ppb - 6) {
		if err := f.Write(l, page(f, ^byte(l))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Barrier(); err != nil { // no stale group for GC to flush first
		t.Fatal(err)
	}
	frontier, victim := f.cur, f.pickVictim()
	if live, _ := f.chip.ValidPages(frontier); victim < 0 || live == 0 {
		t.Fatalf("set-up: victim %d, %d live pages in the frontier block", victim, live)
	}
	type version struct{ data, oob []byte }
	read := func(lpn LPN) version {
		v := version{make([]byte, f.PageSize()), make([]byte, nand.OOBSize)}
		if st, err := f.chip.ScanRead(f.Mapping(lpn), v.data, v.oob); err != nil || st != nand.PageValid {
			t.Fatalf("lpn %d: %v, %v", lpn, st, err)
		}
		return v
	}
	want := map[LPN]version{}
	for l := range lpns {
		want[l] = read(l)
	}

	// The collection's first charged operation is its first copy's read,
	// the second that copy's program: fail the program.
	f.chip.SetCharger(&failNth{chip: f.chip, n: 2})
	err := f.collectOnce()
	f.chip.SetCharger(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ProgramFails.Load() != 1 || !f.bad[frontier] {
		t.Fatalf("%d program fails, frontier block %d retired %v", stats.ProgramFails.Load(), frontier, f.bad[frontier])
	}
	if live, _ := f.chip.ValidPages(frontier); live != 0 {
		t.Fatalf("retired block %d still holds %d live pages", frontier, live)
	}
	if free, _ := f.chip.FreePages(victim); free != ppb {
		t.Fatalf("victim %d not collected", victim)
	}
	for l, w := range want {
		got := read(l)
		if !bytes.Equal(got.data, w.data) || !bytes.Equal(got.oob, w.oob) {
			t.Errorf("lpn %d: relocated page or spare record differs from the original", l)
		}
		rec, _ := decodeOOB(w.oob)
		if seq, ok := f.PageSeq(f.Mapping(l)); !ok || seq != rec.seq {
			t.Errorf("lpn %d: sequence %d after the move, want %d", l, seq, rec.seq)
		}
	}
}

// imagedVictim builds a chip whose greedy GC victim holds twelve live
// pages spread over all three map groups, every one of them still the
// page the flash-resident map image points at. want is the last content
// written to every logical page, all of it durable.
func imagedVictim(t *testing.T) (*FTL, map[LPN]byte) {
	t.Helper()
	f, _ := newTestFTL(t)
	per := LPN(mapEntriesPerPage(f.PageSize()))
	ppb := LPN(f.chip.Config().PagesPerBlock)
	want := map[LPN]byte{}
	write := func(lpn LPN, b byte) {
		if err := f.Write(lpn, page(f, b)); err != nil {
			t.Fatal(err)
		}
		want[lpn] = b
	}
	for i := range ppb {
		write(i%3*per+i, byte(i)) // the victim: groups 0, 1 and 2 in turn
	}
	for i := range ppb {
		write(ppb+i, byte(ppb+i)) // a fully valid block
	}
	for i := range LPN(4) {
		write(i%3*per+i, ^byte(i)) // four of the victim's pages go stale
	}
	if err := f.Barrier(); err != nil {
		t.Fatal(err)
	}
	return f, want
}

// GC persists each map group its victim's imaged pages live in once, not
// once per copied page: the copies only hold their groups, and the
// settle after the last copy persists each of them.
func TestGCPersistsEachGroupOnce(t *testing.T) {
	f, _ := imagedVictim(t)
	victim := f.pickVictim()
	k, groups := 0, map[int64]bool{}
	for pi := range f.chip.Config().PagesPerBlock {
		ppn := f.chip.PPNOf(victim, pi)
		if st, _ := f.chip.State(ppn); st == nand.PageValid && f.persisted.get(f.rmap[ppn]) == ppn {
			k++
			groups[f.group(f.rmap[ppn])] = true
		}
	}
	if g := len(groups); g < 2 || g >= k {
		t.Fatalf("set-up: victim %d holds %d imaged pages in %d map groups", victim, k, g)
	}
	writes, copied := f.stats.PageWrites.Load(), f.GCCopiedPages()
	if err := f.collectOnce(); err != nil {
		t.Fatal(err)
	}
	copies := f.GCCopiedPages() - copied
	if maps := f.stats.PageWrites.Load() - writes - copies; copies != int64(k) || maps != int64(len(groups)) {
		t.Errorf("collection copied %d pages and programmed %d map pages, want %d and %d", copies, maps, k, len(groups))
	}
	if free, _ := f.chip.FreePages(victim); free != f.chip.Config().PagesPerBlock {
		t.Errorf("victim %d not erased", victim)
	}
}

// cutAfter is a chip charger that drops power on the boundary after the
// n-th operation charged once it is installed: that operation completes,
// and every later one finds the power gone.
type cutAfter struct {
	chip *nand.Chip
	n    int64
}

func (c *cutAfter) ChargeUnit(unit int, d time.Duration) (start, end time.Duration) {
	return c.ChargeAll(d)
}

func (c *cutAfter) ChargeAll(d time.Duration) (start, end time.Duration) {
	if c.n--; c.n == 0 {
		c.chip.PowerOff()
	}
	end = c.chip.Clock().Advance(d)
	return end - d, end
}

// Every NAND op of one collection is a crash point: the victim's imaged
// pages are copied, their three groups persisted and the victim erased,
// and power is cut after each op in turn, and again tearing it. After a
// restart every logical page reads its last-written content from a valid
// page, and every valid data page is one the map points at.
func TestPowerCutAtEveryOpOfOneGC(t *testing.T) {
	f, _ := imagedVictim(t)
	before := f.chip.OpCount()
	if err := f.collectOnce(); err != nil {
		t.Fatal(err)
	}
	n := f.chip.OpCount() - before
	buf := make([]byte, testChipConfig().PageSize)
	for k := int64(1); k <= n; k++ {
		for _, torn := range []bool{false, true} {
			f, want := imagedVictim(t)
			if torn {
				f.chip.ArmPowerCut(k)
			} else {
				f.chip.SetCharger(&cutAfter{chip: f.chip, n: k})
			}
			// A cut after the last map program loses the invalidations
			// that follow it, so the chip refuses the erase before it
			// finds the power gone.
			err := f.collectOnce()
			f.chip.SetCharger(nil)
			lost := errors.Is(err, nand.ErrPowerLost) || errors.Is(err, nand.ErrEraseValidPage)
			if err != nil && !lost || err == nil && (torn || k < n) {
				t.Fatalf("op %d/%d torn=%v: collection returned %v, want power loss", k, n, torn, err)
			}
			f.PowerCut()
			if err := f.Restart(); err != nil {
				t.Fatalf("op %d/%d torn=%v: Restart: %v", k, n, torn, err)
			}
			for lpn, b := range want {
				ppn := f.Mapping(lpn)
				if st, _ := f.chip.State(ppn); st != nand.PageValid {
					t.Fatalf("op %d/%d torn=%v: lpn %d maps to ppn %d, which is %v", k, n, torn, lpn, ppn, st)
				}
				if err := f.Read(lpn, buf); err != nil || buf[0] != b {
					t.Fatalf("op %d/%d torn=%v: lpn %d reads %d (%v), want %d", k, n, torn, lpn, buf[0], err, b)
				}
			}
			for b := range nand.BlockNum(testChipConfig().Blocks) {
				if f.metaSet[b] {
					continue
				}
				for pi := range testChipConfig().PagesPerBlock {
					ppn := f.chip.PPNOf(b, pi)
					if st, _ := f.chip.State(ppn); st == nand.PageValid && f.Mapping(f.rmap[ppn]) != ppn {
						t.Fatalf("op %d/%d torn=%v: valid data page %d is not mapped", k, n, torn, ppn)
					}
				}
			}
		}
	}
}
