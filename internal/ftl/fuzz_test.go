package ftl

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/nand"
	"repro/internal/simclock"
)

// The decoders below read bytes recovery did not just write — a spare
// area or a meta payload that survived (or half-survived) a power cut.
// Whatever they are handed they must not panic, and whatever they accept
// must re-encode to the bytes it was decoded from.

func FuzzDecodeOOB(f *testing.F) {
	for _, r := range []oobRec{
		{kind: oobKindData, state: dataStateBase, seq: 1, a: 42},
		{kind: oobKindData, state: dataStateTx, seq: 99, a: 7, b: 12345 | 99<<32},
		{kind: oobKindMeta, state: metaStateChain, seq: 8, a: 5 | 2<<16 | 4<<32, b: 1},
	} {
		enc := encodeOOB(r)
		f.Add(enc[:])
	}
	f.Add(make([]byte, oobRecSize))
	f.Add([]byte{0xB1, 0x0F})
	f.Fuzz(func(t *testing.T, buf []byte) {
		rec, ok := decodeOOB(buf)
		if !ok {
			return
		}
		if enc := encodeOOB(rec); !bytes.Equal(enc[:], buf[:oobRecSize]) {
			t.Fatalf("accepted % x, which re-encodes to % x", buf[:oobRecSize], enc)
		}
	})
}

func FuzzDecodeTidRanges(f *testing.F) {
	f.Add(appendTidRanges(nil, nil))
	f.Add(appendTidRanges(nil, []tidRange{{1, 1}}))
	f.Add(appendTidRanges(nil, []tidRange{{1, 9}, {12, 12}, {1 << 40, 1<<40 + 3}}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, buf []byte) {
		rs, err := decodeTidRanges(buf)
		if err != nil {
			return
		}
		if enc := appendTidRanges(nil, rs); !bytes.Equal(enc, buf[:len(enc)]) {
			t.Fatalf("accepted % x, which re-encodes to % x", buf, enc)
		}
	})
}

// A map-group page read back at mount goes into the table as it stands,
// so whatever loadMapGroup accepts must be the table's page over the
// group's logical range — and nothing else may change.
func FuzzLoadMapGroup(f *testing.F) {
	chip, err := nand.New(testChipConfig(), simclock.New(), nil)
	if err != nil {
		f.Fatal(err)
	}
	ftl, err := New(chip, DefaultConfig(testChipConfig()), nil)
	if err != nil {
		f.Fatal(err)
	}
	ps, total := ftl.PageSize(), uint32(chip.Config().TotalPages())
	blank := newMapTable(ftl.fullMapPages(), ps)
	image := func(entries ...uint32) []byte {
		p := bytes.Repeat([]byte{0xFF}, ps)
		for i, e := range entries {
			binary.LittleEndian.PutUint32(p[4*i:], e)
		}
		return p
	}
	f.Add(int64(0), image())
	f.Add(int64(1), image(0, total-1, unmappedEntry, 7))
	f.Add(int64(0), image(3, total))                   // first PPN beyond the device
	f.Add(int64(ftl.fullMapPages()-1), image()[:ps/2]) // the last group ends mid-page
	f.Add(int64(ftl.fullMapPages()), image())          // no such group
	f.Add(int64(-1), image())
	f.Add(int64(0), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, g int64, page []byte) {
		dst := newMapTable(ftl.fullMapPages(), ps)
		if err := ftl.loadMapGroup(dst, g, page); err != nil {
			if !bytes.Equal(dst.b, blank.b) {
				t.Fatalf("group %d rejected (%v) but the table changed", g, err)
			}
			return
		}
		per := mapEntriesPerPage(ps)
		n := int(min(per, ftl.cfg.LogicalPages-g*per))
		got := dst.page(g)
		if !bytes.Equal(got[:4*n], page[:4*n]) || !bytes.Equal(got[4*n:], blank.page(g)[4*n:]) {
			t.Fatalf("group %d accepted but the table's page is not the image over its %d entries", g, n)
		}
		for i := 0; i < n; i++ {
			if ppn := dst.get(LPN(g*per) + LPN(i)); ppn != nand.InvalidPPN && uint32(ppn) >= total {
				t.Fatalf("group %d entry %d: accepted ppn %d on a device of %d pages", g, i, ppn, total)
			}
		}
		copy(got, blank.b) // the rest of the table is untouched
		if !bytes.Equal(dst.b, blank.b) {
			t.Fatalf("group %d: loading it changed another group's page", g)
		}
	})
}
