package btree

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sqlite/pager"
)

// linearChild is interiorChild as it was before the binary search: walk
// the cells from the first, take the child of the first whose key is >=
// the probe, else the right-most. Kept as the reference the search is
// checked against.
func linearChild(t *Tree, d []byte, rowid int64, key []byte) (pager.Pgno, error) {
	for i, n := 0, nCells(d); i < n; i++ {
		c, err := t.parseCell(d, i)
		if err != nil {
			return 0, err
		}
		if d[offType] == typeTableInterior {
			if rowid <= c.rowid {
				return c.child, nil
			}
		} else if t.cmp(key, c.key) <= 0 {
			return c.child, nil
		}
	}
	return pager.Pgno(getU32(d, offRight)), nil
}

// interiorPage builds an interior page holding the first n of the given
// sorted cells — all that fit when n < 0 — with children numbered from 2
// and the right-most child after them.
func interiorPage(pageSize int, pageType byte, n int, cells []cell) []byte {
	d := make([]byte, pageSize)
	initPage(d, pageType)
	i := 0
	for ; i < len(cells) && (n < 0 || i < n); i++ {
		cells[i].child = pager.Pgno(2 + i)
		if !insertCellAt(d, i, encodeCell(pageType, cells[i])) {
			break
		}
	}
	putU32(d, offRight, uint32(2+i))
	return d
}

func TestInteriorSearchMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	check := func(t *testing.T, tr *Tree, d []byte, rowid int64, key []byte) {
		t.Helper()
		want, werr := linearChild(tr, d, rowid, key)
		got, gerr := tr.interiorChild(d, rowid, key)
		if got != want || gerr != nil || werr != nil {
			t.Fatalf("%d cells, probe (%d, %q): child %d (%v), linear scan says %d (%v)",
				nCells(d), rowid, key, got, gerr, want, werr)
		}
	}
	for _, pageSize := range []int{512, 1024, 8192} {
		// Table separators: distinct, ascending, every varint width,
		// negative rowids (ten-byte varints) first.
		rowids := map[int64]bool{math.MinInt64: true, -1: true, 0: true, math.MaxInt64: true}
		for len(rowids) < 1200 {
			rowids[rng.Int63()>>uint(rng.Intn(63))-int64(rng.Intn(3))] = true
		}
		var tcells []cell
		for r := range rowids {
			tcells = append(tcells, cell{rowid: r})
		}
		sort.Slice(tcells, func(i, j int) bool { return tcells[i].rowid < tcells[j].rowid })
		// Index separators: short byte keys, ascending, many of them equal.
		var icells []cell
		for i := 0; i < 1200; i++ {
			k := make([]byte, rng.Intn(6))
			for j := range k {
				k[j] = byte('a' + rng.Intn(3))
			}
			icells = append(icells, cell{key: k})
		}
		sort.Slice(icells, func(i, j int) bool { return bytes.Compare(icells[i].key, icells[j].key) < 0 })

		table, index := &Tree{kind: KindTable}, &Tree{kind: KindIndex, cmp: bytes.Compare}
		for _, n := range []int{0, 1, 2, 3, 17, -1} { // -1: a full page
			d := interiorPage(pageSize, typeTableInterior, n, tcells)
			if n < 0 && nCells(d) < 40 {
				t.Fatalf("full %d-byte table page holds %d cells", pageSize, nCells(d))
			}
			probes := []int64{math.MinInt64, math.MaxInt64, 0}
			for _, c := range tcells[:nCells(d)] { // below, on and above every separator
				probes = append(probes, c.rowid-1, c.rowid, c.rowid+1)
			}
			for _, p := range probes {
				check(t, table, d, p, nil)
			}

			d = interiorPage(pageSize, typeIndexInterior, n, icells)
			keys := [][]byte{nil, {}, []byte("zzzzzzz")}
			for _, c := range icells[:nCells(d)] {
				keys = append(keys, c.key, append(append([]byte{}, c.key...), 0), c.key[:len(c.key)/2])
			}
			for _, k := range keys {
				check(t, index, d, 0, k)
			}
		}
	}
}

// FuzzCellAccess hands arbitrary page bytes, as each of the four page
// types, to everything that reads a cell: parseCell and the in-place
// search and interiorChild over it. Nothing may panic — a cell that runs
// off the page is ErrCorrupt, an overflow chain's bad page number the
// pager's error — and a cell that is accepted re-encodes to the bytes it was
// read from (or, where a varint was padded, to a shorter cell that reads
// back the same).
func FuzzCellAccess(f *testing.F) {
	const pageSize = 512
	big := bytes.Repeat([]byte("k"), maxLocal(pageSize)+1)
	for pageType, cells := range map[byte][]cell{
		typeTableLeaf: {{rowid: -3, total: 2, payload: []byte("ab")}, {rowid: 7},
			{rowid: 1 << 40, total: len(big), payload: big[:minLocal(pageSize)], ovfl: 9}},
		typeTableInterior: {{child: 2, rowid: 5}, {child: 3, rowid: 1 << 50}},
		typeIndexLeaf: {{total: 1, key: []byte("a")}, {total: 3, key: []byte("abc")},
			{total: len(big), key: big[:minLocal(pageSize)], ovfl: 4}},
		typeIndexInterior: {{child: 2}, {child: 3, key: []byte("m")}, {child: 4, key: []byte("mm")}},
	} {
		d := make([]byte, pageSize)
		initPage(d, pageType)
		for i, c := range cells {
			if !insertCellAt(d, i, encodeCell(pageType, c)) {
				f.Fatal("seed cell does not fit")
			}
		}
		f.Add(d, int64(6), []byte("b"))
	}
	f.Add([]byte{typeTableLeaf, 0xFF, 0xFF}, int64(0), []byte(nil))
	ps := newPager(f) // overflow pages a fuzzed cell names resolve against a real, empty file
	f.Fuzz(func(t *testing.T, in []byte, rowid int64, key []byte) {
		d := make([]byte, pageSize)
		copy(d, in)
		for pageType := byte(typeTableLeaf); pageType <= typeIndexInterior; pageType++ {
			d[offType] = pageType
			tr := &Tree{pg: ps.p, kind: KindIndex, cmp: bytes.Compare}
			for i, n := 0, nCells(d); i < n; i++ {
				c, err := tr.parseCell(d, i)
				if err != nil {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("type %d cell %d: %v", pageType, i, err)
					}
					continue
				}
				enc := encodeCell(pageType, c)
				if bytes.Equal(enc, c.raw) {
					continue
				}
				if len(enc) >= len(c.raw) {
					t.Fatalf("type %d cell %d: read % x, re-encodes to % x", pageType, i, c.raw, enc)
				}
				back := make([]byte, pageSize)
				initPage(back, pageType)
				insertCellAt(back, 0, enc)
				c2, err := tr.parseCell(back, 0)
				if err != nil || c2.rowid != c.rowid || c2.child != c.child || c2.total != c.total || c2.ovfl != c.ovfl ||
					!bytes.Equal(c2.key, c.key) || !bytes.Equal(c2.payload, c.payload) {
					t.Fatalf("type %d cell %d: %+v re-encoded reads back %+v (%v)", pageType, i, c, c2, err)
				}
			}
			if _, _, err := tr.search(d, rowid, key); err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, pager.ErrBadPgno) {
				t.Fatalf("type %d search: %v", pageType, err)
			}
			if _, err := tr.interiorChild(d, rowid, key); err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, pager.ErrBadPgno) {
				t.Fatalf("type %d descent: %v", pageType, err)
			}
		}
	})
}
