package ftl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/nand"
	"repro/internal/simclock"
)

// serializeGroupRef is the renderer the FTL used while its tables were
// []nand.PPN, kept verbatim as the reference for the map-page format:
// 4-byte little-endian PPNs, 0xFFFFFFFF for unmapped entries, 0xFF past
// the last logical page.
func serializeGroupRef(buf []byte, src []nand.PPN, g, per, logicalPages int64) {
	lo := g * per
	buf = buf[:4*per]
	// InvalidPPN is -1: truncated to 32 bits it is the erased pattern.
	for _, ppn := range src[lo:min(lo+per, logicalPages)] {
		binary.LittleEndian.PutUint32(buf, uint32(ppn))
		buf = buf[4:]
	}
	for i := range buf { // entries past LogicalPages, in the last group
		buf[i] = 0xFF
	}
}

// The table in RAM is the bytes a map page carries: every page of a
// random table — unmapped entries, the largest PPN the format can hold,
// a last group that ends mid-page — is what the renderer produced from
// the same entries.
func TestMapTableMatchesRendering(t *testing.T) {
	const (
		pageSize = 512
		per      = pageSize / 4
		logical  = 2*per + per/3 // the last group ends mid-page
		maxPPN   = nand.PPN(unmappedEntry - 1)
	)
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		table := newMapTable(mapPages(logical, pageSize), pageSize)
		ref := make([]nand.PPN, logical)
		for lpn := range ref {
			if got := table.get(LPN(lpn)); got != nand.InvalidPPN {
				t.Fatalf("fresh table maps lpn %d to %d", lpn, got)
			}
			switch rng.Intn(4) {
			case 0:
				ref[lpn] = nand.InvalidPPN
			case 1:
				ref[lpn] = maxPPN
			default:
				ref[lpn] = nand.PPN(rng.Int63n(int64(maxPPN) + 1))
			}
			table.set(LPN(lpn), ref[lpn])
		}
		for lpn, want := range ref {
			if got := table.get(LPN(lpn)); got != want {
				t.Fatalf("lpn %d: set %d, get %d", lpn, want, got)
			}
		}
		want := make([]byte, pageSize)
		for g := int64(0); g < int64(mapPages(logical, pageSize)); g++ {
			serializeGroupRef(want, ref, g, per, logical)
			if !bytes.Equal(table.page(g), want) {
				t.Fatalf("round %d: page %d differs from the rendered group", round, g)
			}
		}
		// Unmapping is writing the erased pattern.
		table.set(0, nand.InvalidPPN)
		if e := binary.LittleEndian.Uint32(table.page(0)); e != 0xFFFFFFFF {
			t.Fatalf("unmapped entry stored as %#x", e)
		}
	}
}

// A four-byte entry cannot address 2^32-1 pages or more (the last value
// is "unmapped"), and entries must not straddle map pages.
func TestMapFormatLimits(t *testing.T) {
	ok := nand.Config{Blocks: 1<<16 - 1, PagesPerBlock: 1 << 16, PageSize: 8192}
	if err := checkMapFormat(ok); err != nil {
		t.Errorf("%d pages rejected: %v", ok.TotalPages(), err)
	}
	for name, c := range map[string]nand.Config{
		"2^32-1 pages": {Blocks: 1<<16 + 1, PagesPerBlock: 1<<16 - 1, PageSize: 8192},
		"2^32 pages":   {Blocks: 1 << 16, PagesPerBlock: 1 << 16, PageSize: 8192},
		"ragged page":  {Blocks: 32, PagesPerBlock: 16, PageSize: 510},
	} {
		if err := checkMapFormat(c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// New applies it.
	chip, err := nand.New(nand.Config{Blocks: 32, PagesPerBlock: 16, PageSize: 510}, simclock.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(chip, DefaultConfig(chip.Config()), nil); err == nil {
		t.Error("New accepted a chip the map-page format does not fit")
	}
}

// pinHook records every page syncGroup asks about and claims some.
type pinHook struct {
	pinned map[nand.PPN]bool
	asked  []nand.PPN
}

func (h *pinHook) Live(ppn nand.PPN) bool {
	h.asked = append(h.asked, ppn)
	return h.pinned[ppn]
}
func (h *pinHook) Relocated(old, new nand.PPN) {}

// syncGroupRef is syncGroup as it walked the tables entry by entry, over
// plain slices; invalidate receives what it would have invalidated.
func syncGroupRef(l2p, persisted []nand.PPN, rmap []LPN, hook Hook, lo, hi int64, invalidate func(nand.PPN)) {
	persisted = persisted[lo:hi]
	for i, now := range l2p[lo:hi] {
		old := persisted[i]
		if old == now {
			continue
		}
		persisted[i] = now
		if old != nand.InvalidPPN && rmap[old] == LPN(lo)+LPN(i) {
			if hook == nil || !hook.Live(old) {
				rmap[old] = -1
				invalidate(old)
			}
		}
	}
}

// Decoding only the lines setL2P marked changes nothing a flush does:
// over random old and new group pages, with some pages pinned by the
// transactional layer, syncGroup leaves the same persisted table and
// reverse map and invalidates the same pages in the same order as the
// entry walk it replaced, and clears the group's bits.
func TestSyncGroupMatchesEntryWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 30; round++ {
		f, _ := newTestFTL(t)
		per := mapEntriesPerPage(f.PageSize())
		// Valid data pages to point the tables at.
		var ppns []nand.PPN
		for i := 0; i < 200; i++ {
			ppn, err := f.WriteRaw(LPN(i), page(f, byte(i)))
			if err != nil {
				t.Fatal(err)
			}
			ppns = append(ppns, ppn)
		}
		pick := func() nand.PPN {
			if rng.Intn(3) == 0 {
				return nand.InvalidPPN
			}
			return ppns[rng.Intn(len(ppns))]
		}
		hook := &pinHook{pinned: map[nand.PPN]bool{}}
		refHook := &pinHook{pinned: hook.pinned}
		f.SetHook(hook)
		// Most entries agree (a flush changes a few); the rest differ in
		// every way two entries can, with the reverse map agreeing or not.
		l2p := make([]nand.PPN, f.cfg.LogicalPages)
		persisted := make([]nand.PPN, f.cfg.LogicalPages)
		for lpn := range l2p {
			persisted[lpn] = pick()
			l2p[lpn] = persisted[lpn]
			// The tables agree, with no dirty bit, as a flush leaves them;
			// what changes after it goes through the volatile table's one
			// writer.
			f.persisted.set(LPN(lpn), persisted[lpn])
			f.l2p.set(LPN(lpn), persisted[lpn])
			if rng.Intn(8) == 0 {
				l2p[lpn] = pick()
				f.setL2P(LPN(lpn), l2p[lpn])
			}
			if old := persisted[lpn]; old != nand.InvalidPPN {
				if rng.Intn(4) > 0 {
					f.rmap[old] = LPN(lpn)
				}
				hook.pinned[old] = rng.Intn(5) == 0
			}
		}
		rmap := slices.Clone(f.rmap)

		for g := int64(0); g < int64(f.fullMapPages()); g++ {
			var want []nand.PPN
			lo, hi := g*per, min((g+1)*per, f.cfg.LogicalPages)
			syncGroupRef(l2p, persisted, rmap, refHook, lo, hi, func(p nand.PPN) { want = append(want, p) })
			hook.asked = hook.asked[:0]
			f.syncGroup(g)
			if slices.ContainsFunc(f.groupLines(g), nonzero) {
				t.Fatalf("round %d group %d: dirty bits left after the sync: %x", round, g, f.groupLines(g))
			}
			var got []nand.PPN
			for _, p := range hook.asked {
				if !hook.pinned[p] {
					got = append(got, p)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d group %d: invalidated %v, the entry walk %v", round, g, got, want)
			}
			for _, p := range want {
				if st, _ := f.chip.State(p); st != nand.PageInvalid {
					t.Fatalf("round %d group %d: ppn %d is %v after the flush, want invalid", round, g, p, st)
				}
			}
		}
		if !slices.Equal(f.rmap, rmap) {
			t.Fatalf("round %d: reverse map differs from the entry walk's", round)
		}
		for lpn, want := range persisted {
			if got := f.persisted.get(LPN(lpn)); got != want || f.l2p.get(LPN(lpn)) != l2p[lpn] {
				t.Fatalf("round %d lpn %d: persisted %d (l2p %d), the entry walk %d (%d)",
					round, lpn, got, f.l2p.get(LPN(lpn)), want, l2p[lpn])
			}
		}
	}
}

func nonzero(w uint64) bool { return w != 0 }

// checkDirtyCovers fails unless every line where the volatile and the
// flash-resident tables differ has its dirty bit set: a flush decodes
// only those lines.
func checkDirtyCovers(t *testing.T, f *FTL, when string) {
	t.Helper()
	ps := f.PageSize()
	for g := range int64(f.fullMapPages()) {
		now, persisted, mask := f.l2p.page(g), f.persisted.page(g), f.groupLines(g)
		for line := 0; line*mapLine < ps; line++ {
			lo, hi := line*mapLine, min((line+1)*mapLine, ps)
			if !bytes.Equal(now[lo:hi], persisted[lo:hi]) && mask[line/64]&(1<<(line%64)) == 0 {
				t.Fatalf("%s: group %d line %d differs from the flash-resident table with no dirty bit", when, g, line)
			}
		}
	}
}

// Over random sequences of the volatile table's writers — Map (a
// Write), Unmap, GC relocation — and map-group flushes, a dirty bit
// covers every line the two tables disagree on, and a flush leaves its
// group's page equal to the volatile one's with none of its bits set.
func TestPropertyDirtyLinesCoverEveryChange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 10; round++ {
		f, stats := newTestFTL(t)
		for op := 0; op < 600; op++ {
			lpn := LPN(rng.Int63n(f.LogicalPages()))
			var what string
			var err error
			switch rng.Intn(6) {
			case 0, 1, 2:
				what, err = "write", f.Write(lpn, page(f, byte(op)))
			case 3:
				what, err = "unmap", f.Unmap(lpn)
			case 4:
				if what = "collect"; f.pickVictim() >= 0 {
					err = f.collectOnce()
				}
			case 5:
				g := rng.Int63n(int64(f.fullMapPages()))
				what, err = fmt.Sprintf("persistGroup(%d)", g), f.persistGroup(g)
				if err == nil && !bytes.Equal(f.persisted.page(g), f.l2p.page(g)) {
					t.Fatalf("round %d op %d: group %d's flash-resident page differs from the volatile one after its flush", round, op, g)
				}
				if slices.ContainsFunc(f.groupLines(g), nonzero) {
					t.Fatalf("round %d op %d: group %d's flush left dirty bits %x", round, op, g, f.groupLines(g))
				}
			}
			if err != nil {
				t.Fatalf("round %d op %d (%s): %v", round, op, what, err)
			}
			checkDirtyCovers(t, f, fmt.Sprintf("round %d op %d (%s)", round, op, what))
		}
		if stats.GCRuns.Load() == 0 || f.GCCopiedPages() == 0 {
			t.Fatalf("round %d: no GC relocation ran", round)
		}
	}
}

// Recovery adopts equal tables on either mount path, so it leaves the
// mask empty.
func TestRestartLeavesNoDirtyLines(t *testing.T) {
	for _, want := range []RecoveryMode{RecoveryImage, RecoveryScan} {
		f, _ := newTestFTL(t)
		writeAndBarrier(t, f, []LPN{1, 130, 300})
		for _, lpn := range []LPN{2, 131, 301} {
			if err := f.Write(lpn, page(f, byte(lpn))); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.ContainsFunc(f.dirty, nonzero) {
			t.Fatal("no dirty line before the cut")
		}
		f.PowerCut()
		if want == RecoveryScan {
			if _, err := f.CorruptMeta("map", true); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Restart(); err != nil {
			t.Fatal(err)
		}
		if got := f.LastRecovery().Mode; got != want {
			t.Fatalf("recovered by %v, want %v", got, want)
		}
		if slices.ContainsFunc(f.dirty, nonzero) {
			t.Errorf("%v mount left dirty bits", want)
		}
		if !bytes.Equal(f.l2p.b, f.persisted.b) {
			t.Errorf("%v mount left the volatile and flash-resident tables different", want)
		}
	}
}
