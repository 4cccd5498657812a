package ftl

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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

// chainPageSize is FuzzSlotChain's page size: small, so the fuzzer's
// bytes go into records and payloads rather than padding.
const chainPageSize = 64

// chainUnit is one page of FuzzSlotChain's input: a control byte, a
// spare record and a page. Control bit 0 seals the page: its payload
// checksum and header CRC are recomputed, so the fuzzer explores records
// that pass the checksums as well as ones that do not.
const chainUnit = 1 + oobRecSize + chainPageSize

// encodeChain writes payload as writeMetaSlot does, as slot id's chain of
// length pages from base sequence number base: each page its piece of the
// payload zero-padded, under a record carrying the page's checksum. It
// returns one spare record and page per index.
func encodeChain(id uint16, base uint64, payload []byte, length int) (oobs [][oobRecSize]byte, pages [][]byte) {
	for i := range length {
		page := make([]byte, chainPageSize)
		n := copy(page, payload[min(i*chainPageSize, len(payload)):])
		rec := oobRec{
			kind: oobKindMeta, state: metaStateChain, seq: base + uint64(i),
			a: uint64(id) | uint64(i)<<16 | uint64(length)<<32,
			b: uint64(crc32.ChecksumIEEE(page)) | uint64(n)<<32,
		}
		oobs, pages = append(oobs, encodeOOB(rec)), append(pages, page)
	}
	return oobs, pages
}

// FuzzSlotChain feeds the recovery scan's chain path — decodeOOB,
// readChainPage (payload checksum and padding), assembleChain — the
// pages a scan might find: whatever they hold it must not panic, and a
// chain it accepts must re-encode identically: writing the accepted
// payload as a chain of the accepted length, from the chain's base
// sequence number, gives back every page that went into it, record and
// bytes.
func FuzzSlotChain(f *testing.F) {
	units := func(sealed bool, oobs [][oobRecSize]byte, pages [][]byte) []byte {
		var in []byte
		for i := range oobs {
			ctl := byte(0)
			if sealed {
				ctl = 1
			}
			in = append(append(append(in, ctl), oobs[i][:]...), pages[i]...)
		}
		return in
	}
	payload := bytes.Repeat([]byte("chain!"), 25) // 150 bytes: two whole pages and a partial one
	oobs, pages := encodeChain(3, 40, payload, 4)
	f.Add(units(false, oobs, pages))
	f.Add(units(false, oobs[:3], pages[:3]))                             // incomplete
	f.Add(units(false, append(oobs, oobs[1]), append(pages, pages[1])))  // a re-home's duplicate
	f.Add(units(true, [][oobRecSize]byte{oobs[1], oobs[0]}, pages[:2]))  // records swapped, resealed
	f.Add(units(false, oobs[:1], [][]byte{bytes.Repeat([]byte{1}, 64)})) // checksum mismatch
	oobs, pages = encodeChain(7, 9, nil, 2)                              // a pad chain
	f.Add(units(false, oobs, pages))
	f.Fuzz(func(t *testing.T, in []byte) {
		type key struct {
			slot uint16
			base uint64
		}
		found := map[key][]scanChainPage{}
		raw := map[key][][]byte{} // the units behind each candidate chain's pages
		for ; len(in) >= chainUnit; in = in[chainUnit:] {
			unit := bytes.Clone(in[1:chainUnit])
			oob, page := unit[:oobRecSize], unit[oobRecSize:]
			if in[0]&1 != 0 {
				binary.LittleEndian.PutUint32(oob[20:], crc32.ChecksumIEEE(page))
				binary.LittleEndian.PutUint32(oob[28:], crc32.ChecksumIEEE(oob[:28]))
			}
			rec, ok := decodeOOB(oob)
			if !ok {
				continue
			}
			cp, err := readChainPage(rec, page)
			if err != nil {
				continue
			}
			k := key{cp.slot, cp.baseSeq}
			found[k], raw[k] = append(found[k], cp), append(raw[k], unit)
		}
		for k, cps := range found {
			payload, length, ok := assembleChain(cps, chainPageSize)
			if !ok {
				continue
			}
			oobs, pages := encodeChain(k.slot, k.base, payload, length)
			for i, cp := range cps {
				want := append(oobs[cp.idx][:], pages[cp.idx]...)
				if !bytes.Equal(raw[k][i], want) {
					t.Fatalf("slot %d base %d: accepted page %d/%d\n% x\nre-encodes to\n% x", k.slot, k.base, cp.idx, length, raw[k][i], want)
				}
			}
		}
	})
}
