package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/simfs"
	"repro/internal/sqlite/pager"
	"repro/internal/storage"
)

func newPager(t testing.TB) *Pagers { return newPagerSized(t, 200) }

func newPagerSized(t testing.TB, cacheSize int) *Pagers {
	t.Helper()
	prof := storage.OpenSSD()
	prof.Nand.Blocks = 256
	prof.Nand.PagesPerBlock = 32
	prof.Nand.PageSize = 1024
	dev, err := storage.New(prof, simclock.New(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := simfs.New(dev, simfs.Ordered, &metrics.HostCounters{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pager.Open(fsys, "bt.db", pager.Config{Mode: pager.Rollback, CacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	return &Pagers{p: p, t: t}
}

// Pagers wraps a pager with transaction helpers for tests.
type Pagers struct {
	p *pager.Pager
	t testing.TB
}

func (ps *Pagers) begin() {
	ps.t.Helper()
	if err := ps.p.Begin(); err != nil {
		ps.t.Fatal(err)
	}
}

func (ps *Pagers) commit() {
	ps.t.Helper()
	if err := ps.p.Commit(); err != nil {
		ps.t.Fatal(err)
	}
}

func payloadFor(i int64) []byte { return []byte(fmt.Sprintf("row-%d-payload", i)) }

func TestTableInsertGet(t *testing.T) {
	ps := newPager(t)
	ps.begin()
	root, err := CreateTable(ps.p)
	if err != nil {
		t.Fatal(err)
	}
	tr := OpenTable(ps.p, root)
	for i := int64(1); i <= 100; i++ {
		if err := tr.Insert(i, payloadFor(i)); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	ps.commit()
	for i := int64(1); i <= 100; i++ {
		got, ok, err := tr.Get(i)
		if err != nil || !ok {
			t.Fatalf("Get(%d): %v ok=%v", i, err, ok)
		}
		if !bytes.Equal(got, payloadFor(i)) {
			t.Errorf("Get(%d) = %q, want %q", i, got, payloadFor(i))
		}
	}
	if _, ok, _ := tr.Get(101); ok {
		t.Error("Get(101) found a nonexistent row")
	}
}

func TestTableSplitsManyRows(t *testing.T) {
	ps := newPager(t)
	ps.begin()
	root, _ := CreateTable(ps.p)
	tr := OpenTable(ps.p, root)
	const n = 3000
	// Insert in a shuffled order to exercise non-append splits.
	order := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range order {
		if err := tr.Insert(int64(i+1), payloadFor(int64(i+1))); err != nil {
			t.Fatalf("Insert(%d): %v", i+1, err)
		}
	}
	ps.commit()
	for i := int64(1); i <= n; i++ {
		got, ok, err := tr.Get(i)
		if err != nil || !ok {
			t.Fatalf("Get(%d): %v ok=%v", i, err, ok)
		}
		if !bytes.Equal(got, payloadFor(i)) {
			t.Fatalf("Get(%d) wrong payload", i)
		}
	}
	// Full scan must return all rows in order.
	cur, err := tr.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	var prev int64
	count := 0
	for cur.Valid() {
		rid, err := cur.Rowid()
		if err != nil {
			t.Fatal(err)
		}
		if rid <= prev {
			t.Fatalf("scan out of order: %d after %d", rid, prev)
		}
		prev = rid
		count++
		if err := cur.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if count != n {
		t.Errorf("scan visited %d rows, want %d", count, n)
	}
}

func TestTableReplace(t *testing.T) {
	ps := newPager(t)
	ps.begin()
	root, _ := CreateTable(ps.p)
	tr := OpenTable(ps.p, root)
	if err := tr.Insert(5, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(5, []byte("new-and-longer-content")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := tr.Get(5)
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if string(got) != "new-and-longer-content" {
		t.Errorf("Get = %q", got)
	}
	ps.commit()
}

func TestTableDelete(t *testing.T) {
	ps := newPager(t)
	ps.begin()
	root, _ := CreateTable(ps.p)
	tr := OpenTable(ps.p, root)
	for i := int64(1); i <= 500; i++ {
		if err := tr.Insert(i, payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete evens.
	for i := int64(2); i <= 500; i += 2 {
		ok, err := tr.Delete(i)
		if err != nil || !ok {
			t.Fatalf("Delete(%d): %v ok=%v", i, err, ok)
		}
	}
	ps.commit()
	if ok, _ := tr.Delete(2); ok {
		t.Error("double delete succeeded")
	}
	for i := int64(1); i <= 500; i++ {
		_, ok, err := tr.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := i%2 == 1; ok != want {
			t.Errorf("Get(%d) ok=%v, want %v", i, ok, want)
		}
	}
	// Scan sees only odds, in order.
	cur, _ := tr.SeekFirst()
	count := 0
	for cur.Valid() {
		rid, _ := cur.Rowid()
		if rid%2 == 0 {
			t.Errorf("scan returned deleted rowid %d", rid)
		}
		count++
		_ = cur.Next()
	}
	if count != 250 {
		t.Errorf("scan count = %d, want 250", count)
	}
}

func TestOverflowPayloads(t *testing.T) {
	ps := newPager(t)
	ps.begin()
	root, _ := CreateTable(ps.p)
	tr := OpenTable(ps.p, root)
	// Payloads spanning several overflow pages (page size 1024).
	big := func(i int64) []byte {
		b := make([]byte, 5000+i*100)
		for j := range b {
			b[j] = byte(i + int64(j)%251)
		}
		return b
	}
	for i := int64(1); i <= 10; i++ {
		if err := tr.Insert(i, big(i)); err != nil {
			t.Fatalf("Insert big %d: %v", i, err)
		}
	}
	ps.commit()
	for i := int64(1); i <= 10; i++ {
		got, ok, err := tr.Get(i)
		if err != nil || !ok {
			t.Fatal(err, ok)
		}
		if !bytes.Equal(got, big(i)) {
			t.Errorf("blob %d corrupted (len %d)", i, len(got))
		}
	}
	// Replacing a big payload frees its overflow chain for reuse.
	ps.begin()
	free0 := ps.p.NPages()
	if err := tr.Insert(1, []byte("small now")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(2, big(2)); err != nil { // reuses freed pages
		t.Fatal(err)
	}
	ps.commit()
	// The new chain is written before the old one is freed, so up to
	// one extra page of transient growth is expected — but wholesale
	// re-allocation of the chain would grow by several pages.
	if ps.p.NPages() > free0+2 {
		t.Errorf("db grew from %d to %d; overflow pages not reused", free0, ps.p.NPages())
	}
}

func TestSeekRange(t *testing.T) {
	ps := newPager(t)
	ps.begin()
	root, _ := CreateTable(ps.p)
	tr := OpenTable(ps.p, root)
	for i := int64(10); i <= 1000; i += 10 {
		if err := tr.Insert(i, payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	ps.commit()
	cur, err := tr.SeekRowid(95)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := cur.Rowid()
	if err != nil {
		t.Fatal(err)
	}
	if rid != 100 {
		t.Errorf("Seek(95) = %d, want 100", rid)
	}
	cur, _ = tr.SeekRowid(2000)
	if cur.Valid() {
		t.Error("Seek past end is valid")
	}
}

func TestMaxRowid(t *testing.T) {
	ps := newPager(t)
	ps.begin()
	root, _ := CreateTable(ps.p)
	tr := OpenTable(ps.p, root)
	if got, _ := tr.MaxRowid(); got != 0 {
		t.Errorf("empty MaxRowid = %d", got)
	}
	for i := int64(1); i <= 700; i++ {
		_ = tr.Insert(i, payloadFor(i))
	}
	if got, _ := tr.MaxRowid(); got != 700 {
		t.Errorf("MaxRowid = %d, want 700", got)
	}
	ps.commit()
}

func TestIndexTree(t *testing.T) {
	ps := newPager(t)
	ps.begin()
	root, err := CreateIndex(ps.p)
	if err != nil {
		t.Fatal(err)
	}
	ix := OpenIndex(ps.p, root, bytes.Compare)
	keys := make([][]byte, 0, 1000)
	for i := 0; i < 1000; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key-%05d", i)))
	}
	order := rand.New(rand.NewSource(2)).Perm(len(keys))
	for _, i := range order {
		if err := ix.InsertKey(keys[i]); err != nil {
			t.Fatalf("InsertKey(%s): %v", keys[i], err)
		}
	}
	ps.commit()
	// Range scan from a probe.
	cur, err := ix.SeekKey([]byte("key-00500"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 500; i < 1000; i++ {
		if !cur.Valid() {
			t.Fatalf("cursor exhausted at %d", i)
		}
		k, err := cur.Key()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("key-%05d", i); string(k) != want {
			t.Fatalf("scan key = %s, want %s", k, want)
		}
		_ = cur.Next()
	}
	if cur.Valid() {
		t.Error("cursor still valid past last key")
	}
	// Deletion.
	ps.begin()
	ok, err := ix.DeleteKey([]byte("key-00500"))
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	ps.commit()
	cur, _ = ix.SeekKey([]byte("key-00500"))
	k, _ := cur.Key()
	if string(k) != "key-00501" {
		t.Errorf("after delete, seek found %s", k)
	}
}

func TestDropReclaimsPages(t *testing.T) {
	ps := newPager(t)
	ps.begin()
	root, _ := CreateTable(ps.p)
	tr := OpenTable(ps.p, root)
	for i := int64(1); i <= 1000; i++ {
		_ = tr.Insert(i, payloadFor(i))
	}
	ps.commit()
	grown := ps.p.NPages()
	ps.begin()
	if err := tr.Drop(); err != nil {
		t.Fatal(err)
	}
	// Recreate content of similar size: page count must not exceed the
	// previous high-water mark (pages were recycled via the freelist).
	for i := int64(1); i <= 1000; i++ {
		_ = tr.Insert(i, payloadFor(i))
	}
	ps.commit()
	if ps.p.NPages() > grown {
		t.Errorf("NPages %d > %d after drop+rebuild; pages leaked", ps.p.NPages(), grown)
	}
	got, ok, _ := tr.Get(500)
	if !ok || !bytes.Equal(got, payloadFor(500)) {
		t.Error("rebuilt tree corrupt")
	}
}

func TestWrongKindOps(t *testing.T) {
	ps := newPager(t)
	ps.begin()
	troot, _ := CreateTable(ps.p)
	iroot, _ := CreateIndex(ps.p)
	tr := OpenTable(ps.p, troot)
	ix := OpenIndex(ps.p, iroot, nil)
	if err := tr.InsertKey([]byte("x")); err != ErrWrongKind {
		t.Errorf("table InsertKey = %v", err)
	}
	if err := ix.Insert(1, nil); err != ErrWrongKind {
		t.Errorf("index Insert = %v", err)
	}
	ps.commit()
}

// Property: a table tree behaves exactly like a map[int64][]byte under
// random insert/replace/delete sequences.
func TestPropertyTableMatchesMap(t *testing.T) {
	ps := newPager(t)
	ps.begin()
	root, _ := CreateTable(ps.p)
	tr := OpenTable(ps.p, root)
	shadow := map[int64][]byte{}
	rng := rand.New(rand.NewSource(99))
	fn := func(ops []uint32) bool {
		for _, op := range ops {
			rid := int64(op%200) + 1
			switch (op / 200) % 3 {
			case 0, 1:
				pl := make([]byte, rng.Intn(60)+1)
				rng.Read(pl)
				if err := tr.Insert(rid, pl); err != nil {
					return false
				}
				shadow[rid] = pl
			case 2:
				ok, err := tr.Delete(rid)
				if err != nil {
					return false
				}
				_, want := shadow[rid]
				if ok != want {
					return false
				}
				delete(shadow, rid)
			}
		}
		for rid, want := range shadow {
			got, ok, err := tr.Get(rid)
			if err != nil || !ok || !bytes.Equal(got, want) {
				return false
			}
		}
		// And the scan count matches.
		cur, err := tr.SeekFirst()
		if err != nil {
			return false
		}
		n := 0
		for cur.Valid() {
			n++
			if err := cur.Next(); err != nil {
				return false
			}
		}
		return n == len(shadow)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
	ps.commit()
}

// chainOf lists the overflow pages of the table row, first to last.
func chainOf(t *testing.T, tr *Tree, rowid int64) []pager.Pgno {
	t.Helper()
	pg, err := tr.leafFor(rowid, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, found, err := tr.search(pg.Data(), rowid, nil)
	if err != nil || !found {
		t.Fatalf("row %d: found=%v err=%v", rowid, found, err)
	}
	c, err := tr.parseCell(pg.Data(), idx)
	pg.Release()
	if err != nil {
		t.Fatal(err)
	}
	var chain []pager.Pgno
	for pgno := c.ovfl; pgno != 0; {
		chain = append(chain, pgno)
		op, err := tr.pg.Get(pgno)
		if err != nil {
			t.Fatal(err)
		}
		pgno = pager.Pgno(getU32(op.Data(), 1))
		op.Release()
	}
	return chain
}

// A replacement whose cell encodes to the size of the one it replaces —
// an UPDATE of a fixed-width column — is written over the old cell: no
// other byte of the leaf moves, nothing is fragmented or compacted, and a
// spilled row's old chain goes back to the freelist.
func TestSameSizeReplaceOverwritesInPlace(t *testing.T) {
	ps := newPager(t)
	ps.begin()
	root, _ := CreateTable(ps.p)
	tr := OpenTable(ps.p, root)
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	spilled := maxLocal(ps.p.PageSize())*3 + 17 // inline part plus a two-page chain
	for i := int64(1); i <= 9; i++ {
		if err := tr.Insert(i, fill(40+int(i), byte('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Insert(5, fill(spilled, 'S')); err != nil { // a different size: leaves a fragment behind
		t.Fatal(err)
	}
	ps.commit()

	for _, tc := range []struct {
		name  string
		rowid int64
		with  []byte
	}{
		{"inline", 3, fill(43, 'X')},
		{"spilled to spilled", 5, fill(spilled, 'Y')},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps.begin()
			defer ps.commit()
			pg, err := ps.p.Get(root)
			if err != nil {
				t.Fatal(err)
			}
			defer pg.Release()
			d := pg.Data()
			if !isLeaf(d) || getU16(d, offFrag) == 0 {
				t.Fatalf("set-up: want a one-leaf tree with a fragment (leaf=%v frag=%d)", isLeaf(d), getU16(d, offFrag))
			}
			before := append([]byte(nil), d...)
			idx, _, _ := tr.search(d, tc.rowid, nil)
			old, err := tr.parseCell(d, idx)
			if err != nil {
				t.Fatal(err)
			}
			lo := cellPtr(d, idx)
			oldChain := chainOf(t, tr, tc.rowid)
			nPages := ps.p.NPages()

			if err := tr.Insert(tc.rowid, tc.with); err != nil {
				t.Fatal(err)
			}
			if got, ok, err := tr.Get(tc.rowid); err != nil || !ok || !bytes.Equal(got, tc.with) {
				t.Fatalf("row reads back wrong after the replace (ok=%v err=%v)", ok, err)
			}
			hi := lo + len(old.raw)
			if !bytes.Equal(d[:lo], before[:lo]) || !bytes.Equal(d[hi:], before[hi:]) {
				t.Error("bytes outside the replaced cell changed: header, pointer array or another cell")
			}
			if bytes.Equal(d[lo:hi], before[lo:hi]) {
				t.Error("the cell itself did not change")
			}
			if freeSpace(d) != freeSpace(before) {
				t.Errorf("freeSpace %d -> %d", freeSpace(before), freeSpace(d))
			}
			// The old chain is what the allocator hands out next, last
			// freed first; the file has grown only by the new chain.
			if want := nPages + pager.Pgno(len(oldChain)); ps.p.NPages() != want {
				t.Errorf("file is %d pages after the replace, want %d", ps.p.NPages(), want)
			}
			for i := len(oldChain) - 1; i >= 0; i-- {
				fresh, err := ps.p.Allocate()
				if err != nil {
					t.Fatal(err)
				}
				if fresh.Pgno() != oldChain[i] {
					t.Errorf("allocator handed out page %d, want old chain page %d", fresh.Pgno(), oldChain[i])
				}
				fresh.Release()
				defer func(pgno pager.Pgno) { _ = ps.p.Free(pgno) }(fresh.Pgno())
			}
		})
	}
}

// An overflow chain is read from pages nothing has checked: each of these
// hand-built pages must end in ErrCorrupt — not a spin, a slice panic, or
// a page freed twice.
func TestCorruptOverflowChainIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(d []byte, self, first pager.Pgno)
		walk    func(tr *Tree) error
	}{
		{"empty page that points at itself",
			func(d []byte, self, _ pager.Pgno) { putU16(d, 5, 0); putU32(d, 1, uint32(self)) },
			func(tr *Tree) error { _, _, err := tr.Get(1); return err }},
		{"length past the page end",
			func(d []byte, _, _ pager.Pgno) { putU16(d, 5, uint16(len(d)-ovflHdrSize+1)) },
			func(tr *Tree) error { _, _, err := tr.Get(1); return err }},
		{"cycle under free",
			func(d []byte, _, first pager.Pgno) { putU32(d, 1, uint32(first)) },
			func(tr *Tree) error { _, err := tr.Delete(1); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps := newPager(t)
			ps.begin()
			root, _ := CreateTable(ps.p)
			tr := OpenTable(ps.p, root)
			if err := tr.Insert(1, bytes.Repeat([]byte("v"), 4000)); err != nil {
				t.Fatal(err)
			}
			chain := chainOf(t, tr, 1)
			if len(chain) < 3 {
				t.Fatalf("set-up: chain of %d pages", len(chain))
			}
			pg, err := ps.p.Get(chain[1])
			if err != nil {
				t.Fatal(err)
			}
			if err := ps.p.Write(pg); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(pg.Data(), chain[1], chain[0])
			pg.Release()
			if err := tc.walk(tr); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
}
