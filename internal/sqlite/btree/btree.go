// Package btree implements the B+tree storage used for tables and
// indexes in the simulated SQLite engine: slotted pages over the pager,
// rowid-keyed table trees, byte-key index trees with a pluggable
// comparator, and overflow page chains for large payloads (the paper's
// Facebook trace stores thumbnail blobs, §6.3.2).
//
// Deletions do not rebalance: emptied leaves stay linked, as keeping
// the structure write-cheap is what the workload mix rewards and what
// the experiments' I/O shape depends on. Drop reclaims every page.
package btree

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/sqlite/pager"
)

// Page types.
const (
	typeTableLeaf     = 1
	typeTableInterior = 2
	typeIndexLeaf     = 3
	typeIndexInterior = 4
	typeOverflow      = 5
)

// Page header layout (bytes).
const (
	offType     = 0
	offNCells   = 1 // u16
	offContent  = 3 // u16: start of cell content area (0 means page end)
	offFrag     = 5 // u16: fragmented free bytes
	offRight    = 7 // u32: right-most child (interior) / next leaf (leaf)
	hdrSize     = 12
	ptrSize     = 2
	ovflHdrSize = 11 // type(1) + next(4) + len(2) + pad(4)
)

// Errors.
var (
	ErrNotFound  = errors.New("btree: key not found")
	ErrCorrupt   = errors.New("btree: page corrupt")
	ErrTooLarge  = errors.New("btree: payload exceeds maximum size")
	ErrWrongKind = errors.New("btree: operation not valid for this tree kind")
)

// Kind distinguishes table trees (int64 rowid keys with payloads) from
// index trees (opaque byte keys).
type Kind int

// Tree kinds.
const (
	KindTable Kind = iota
	KindIndex
)

// Compare orders index keys. It must be a total order and must treat a
// prefix as less than any extension.
type Compare func(a, b []byte) int

// Tree is one B+tree rooted at a fixed page.
type Tree struct {
	pg   *pager.Pager
	root pager.Pgno
	kind Kind
	cmp  Compare
	// The hint: path is the last descent's pages from the root to the
	// leaf, and pathGen the pager generation it is good for (see stamp).
	// They are page numbers; pins holds the path's pages pinned for the
	// length of one write and is empty between calls.
	path    []pager.Pgno
	pathGen uint64
	pins    []*pager.Page
}

// CreateTable allocates an empty table tree and returns its root page.
// Must be called inside a pager transaction.
func CreateTable(p *pager.Pager) (pager.Pgno, error) { return create(p, typeTableLeaf) }

// CreateIndex allocates an empty index tree and returns its root page.
func CreateIndex(p *pager.Pager) (pager.Pgno, error) { return create(p, typeIndexLeaf) }

func create(p *pager.Pager, leafType byte) (pager.Pgno, error) {
	pg, err := p.Allocate()
	if err != nil {
		return 0, err
	}
	defer pg.Release()
	initPage(pg.Data(), leafType)
	return pg.Pgno(), nil
}

// OpenTable attaches to an existing table tree.
func OpenTable(p *pager.Pager, root pager.Pgno) *Tree {
	return &Tree{pg: p, root: root, kind: KindTable}
}

// OpenIndex attaches to an existing index tree with its key comparator.
func OpenIndex(p *pager.Pager, root pager.Pgno, cmp Compare) *Tree {
	if cmp == nil {
		cmp = bytes.Compare
	}
	return &Tree{pg: p, root: root, kind: KindIndex, cmp: cmp}
}

func initPage(d []byte, pageType byte) {
	clear(d)
	d[offType] = pageType
	putU16(d, offNCells, 0)
	putU16(d, offContent, uint16(len(d)))
	putU16(d, offFrag, 0)
	putU32(d, offRight, 0)
}

func putU16(d []byte, off int, v uint16) { binary.BigEndian.PutUint16(d[off:], v) }
func getU16(d []byte, off int) uint16    { return binary.BigEndian.Uint16(d[off:]) }
func putU32(d []byte, off int, v uint32) { binary.BigEndian.PutUint32(d[off:], v) }
func getU32(d []byte, off int) uint32    { return binary.BigEndian.Uint32(d[off:]) }

func nCells(d []byte) int { return int(getU16(d, offNCells)) }
func cellPtr(d []byte, i int) int {
	return int(getU16(d, hdrSize+ptrSize*i))
}
func isLeaf(d []byte) bool {
	return d[offType] == typeTableLeaf || d[offType] == typeIndexLeaf
}

// maxLocal is the largest payload stored fully inline; larger payloads
// keep minLocal bytes inline and spill the rest to overflow pages.
func maxLocal(pageSize int) int { return (pageSize - 64) / 4 }
func minLocal(pageSize int) int { return maxLocal(pageSize) / 4 }

// usableOverflow is the data capacity of one overflow page.
func usableOverflow(pageSize int) int { return pageSize - ovflHdrSize }

// ---- cell encoding ----
//
// Table leaf:      varint rowid, varint payloadLen, inline, [u32 ovfl]
// Table interior:  u32 leftChild, varint key
// Index leaf:      varint payloadLen, inline, [u32 ovfl]
// Index interior:  u32 leftChild, varint sepLen, sep bytes (seps are
//                  bounded copies of leaf keys and are never spilled)

// cell is a decoded cell.
type cell struct {
	rowid   int64      // table trees
	key     []byte     // index trees: full key (interior: separator)
	payload []byte     // table leaf: inline part
	total   int        // full payload length including overflow
	ovfl    pager.Pgno // first overflow page or 0
	child   pager.Pgno // interior cells
	raw     []byte     // encoded form
}

func uvarint(d []byte) (uint64, int) { return binary.Uvarint(d) }

// In-place access. The read path never builds a cell: a search step reads
// the one field it compares straight from the pinned page. Every access
// is bounds-checked — a pointer slot or a cell running past the page is
// ErrCorrupt, not a slice panic — and every slice handed back aliases the
// page, dead after Release.

// cellAt returns the page from the first byte of cell i on.
func cellAt(d []byte, i int) ([]byte, error) {
	slot := hdrSize + ptrSize*i
	if slot+ptrSize > len(d) {
		return nil, ErrCorrupt
	}
	off := int(getU16(d, slot))
	if off >= len(d) {
		return nil, ErrCorrupt
	}
	return d[off:], nil
}

// rowidOf reads a table cell's key: the leading varint of a leaf cell, the
// one after the child of an interior cell.
func rowidOf(b []byte) (int64, int, error) {
	rid, n := uvarint(b)
	if n <= 0 {
		return 0, 0, ErrCorrupt
	}
	return int64(rid), n, nil
}

// childOf splits an interior cell into its left child and the key after.
func childOf(b []byte) (pager.Pgno, []byte, error) {
	if len(b) < 4 {
		return 0, nil, ErrCorrupt
	}
	return pager.Pgno(getU32(b, 0)), b[4:], nil
}

// sepOf reads an index-interior cell's separator from the bytes after its
// child, and how many of them it spans.
func sepOf(b []byte) ([]byte, int, error) {
	klen, n := uvarint(b)
	if n <= 0 || klen > uint64(len(b)-n) {
		return nil, 0, ErrCorrupt
	}
	return b[n : n+int(klen)], n + int(klen), nil
}

// leafBody reads what table- and index-leaf cells share — varint total
// length, the inline bytes, the first overflow page when they are not all
// of it — and how many bytes that spans.
func leafBody(b []byte, pageSize int) (inline []byte, total int, ovfl pager.Pgno, n int, err error) {
	tot, n := uvarint(b)
	if n <= 0 || tot > math.MaxInt32 {
		return nil, 0, 0, 0, ErrCorrupt
	}
	total = int(tot)
	if total <= maxLocal(pageSize) {
		if n+total > len(b) {
			return nil, 0, 0, 0, ErrCorrupt
		}
		return b[n : n+total], total, 0, n + total, nil
	}
	end := n + minLocal(pageSize)
	if end+4 > len(b) {
		return nil, 0, 0, 0, ErrCorrupt
	}
	if ovfl = pager.Pgno(getU32(b, end)); ovfl == 0 {
		return nil, 0, 0, 0, fmt.Errorf("%w: spilled cell without overflow page", ErrCorrupt)
	}
	return b[n:end], total, ovfl, end + 4, nil
}

// parseCell decodes cell i whole, for the paths that change it.
func (t *Tree) parseCell(d []byte, i int) (cell, error) {
	b, err := cellAt(d, i)
	if err != nil {
		return cell{}, err
	}
	return decodeCell(d[offType], len(d), b)
}

// decodeCell decodes the cell that starts b, on a page of the given type
// and size.
func decodeCell(pageType byte, pageSize int, b []byte) (cell, error) {
	var c cell
	var key []byte // an interior cell past its child
	var err error
	n, m := 0, 0 // encoded length, in two parts
	switch pageType {
	case typeTableLeaf:
		if c.rowid, n, err = rowidOf(b); err == nil {
			c.payload, c.total, c.ovfl, m, err = leafBody(b[n:], pageSize)
		}
	case typeTableInterior:
		if c.child, key, err = childOf(b); err == nil {
			c.rowid, m, err = rowidOf(key)
			n = 4
		}
	case typeIndexLeaf:
		c.key, c.total, c.ovfl, m, err = leafBody(b, pageSize)
	case typeIndexInterior:
		if c.child, key, err = childOf(b); err == nil {
			c.key, m, err = sepOf(key)
			n = 4
		}
	default:
		err = fmt.Errorf("%w: type %d", ErrCorrupt, pageType)
	}
	if err != nil {
		return c, err
	}
	c.raw = b[:n+m]
	return c, nil
}

// encodeCell produces the raw bytes of a cell for a page of the given type,
// in one allocation of its size.
func encodeCell(pageType byte, c cell) []byte {
	return appendCell(make([]byte, 0, cellSize(pageType, c)), pageType, c)
}

// cellSize is the encoded length of a cell on a page of the given type.
func cellSize(pageType byte, c cell) int {
	n := 0
	switch pageType {
	case typeTableLeaf:
		n = uvarintLen(uint64(c.rowid)) + uvarintLen(uint64(c.total)) + len(c.payload)
	case typeTableInterior:
		return 4 + uvarintLen(uint64(c.rowid))
	case typeIndexLeaf:
		n = uvarintLen(uint64(c.total)) + len(c.key)
	case typeIndexInterior:
		return 4 + uvarintLen(uint64(len(c.key))) + len(c.key)
	}
	if c.ovfl != 0 {
		n += 4
	}
	return n
}

// uvarintLen is the length of v's varint encoding.
func uvarintLen(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}

// appendCell appends a cell's encoding for a page of the given type to buf:
// over an old cell of the same size where buf is that cell cut to length 0.
func appendCell(buf []byte, pageType byte, c cell) []byte {
	switch pageType {
	case typeTableLeaf:
		buf = binary.AppendUvarint(buf, uint64(c.rowid))
		buf = binary.AppendUvarint(buf, uint64(c.total))
		buf = append(buf, c.payload...)
		if c.ovfl != 0 {
			buf = binary.BigEndian.AppendUint32(buf, uint32(c.ovfl))
		}
	case typeTableInterior:
		buf = binary.BigEndian.AppendUint32(buf, uint32(c.child))
		buf = binary.AppendUvarint(buf, uint64(c.rowid))
	case typeIndexLeaf:
		buf = binary.AppendUvarint(buf, uint64(c.total))
		buf = append(buf, c.key...)
		if c.ovfl != 0 {
			buf = binary.BigEndian.AppendUint32(buf, uint32(c.ovfl))
		}
	case typeIndexInterior:
		buf = binary.BigEndian.AppendUint32(buf, uint32(c.child))
		buf = binary.AppendUvarint(buf, uint64(len(c.key)))
		buf = append(buf, c.key...)
	}
	return buf
}

// freeSpace reports contiguous + fragmented free bytes in a page.
func freeSpace(d []byte) int {
	content := int(getU16(d, offContent))
	top := hdrSize + ptrSize*nCells(d)
	return content - top + int(getU16(d, offFrag))
}

// insertCellAt places raw cell bytes at slot i, defragmenting if the
// contiguous gap is too small. Returns false if the page cannot hold it.
func insertCellAt(d []byte, i int, raw []byte) bool {
	dst := reserveCellAt(d, i, len(raw))
	copy(dst, raw)
	return dst != nil
}

// reserveCellAt gives slot i a cell of size bytes and returns them, to be
// encoded in place; nil if the page cannot hold it.
func reserveCellAt(d []byte, i, size int) []byte {
	need := size + ptrSize
	if freeSpace(d) < need {
		return nil
	}
	content := int(getU16(d, offContent))
	top := hdrSize + ptrSize*nCells(d)
	if content-top < need {
		defragment(d)
		content = int(getU16(d, offContent))
	}
	content -= size
	// Shift pointer array.
	n := nCells(d)
	copy(d[hdrSize+ptrSize*(i+1):hdrSize+ptrSize*(n+1)], d[hdrSize+ptrSize*i:hdrSize+ptrSize*n])
	putU16(d, hdrSize+ptrSize*i, uint16(content))
	putU16(d, offNCells, uint16(n+1))
	putU16(d, offContent, uint16(content))
	return d[content : content+size]
}

// removeCellAt drops slot i, leaving its content bytes fragmented.
func removeCellAt(d []byte, i int, rawLen int) {
	n := nCells(d)
	copy(d[hdrSize+ptrSize*i:hdrSize+ptrSize*(n-1)], d[hdrSize+ptrSize*(i+1):hdrSize+ptrSize*n])
	putU16(d, offNCells, uint16(n-1))
	putU16(d, offFrag, getU16(d, offFrag)+uint16(rawLen))
}

// defragment rewrites all cells contiguously at the page end.
func defragment(d []byte) {
	n := nCells(d)
	type slot struct {
		off, ln int
	}
	// Compute each cell's length by re-parsing is avoided: lengths are
	// recovered by copying cells into a scratch area first.
	scratch := make([]byte, len(d))
	copy(scratch, d)
	content := len(d)
	for i := 0; i < n; i++ {
		off := int(getU16(scratch, hdrSize+ptrSize*i))
		ln := cellLen(scratch, off)
		content -= ln
		copy(d[content:], scratch[off:off+ln])
		putU16(d, hdrSize+ptrSize*i, uint16(content))
	}
	putU16(d, offContent, uint16(content))
	putU16(d, offFrag, 0)
}

// cellLen computes the encoded length of the cell at a raw offset.
func cellLen(d []byte, off int) int {
	b := d[off:]
	switch d[offType] {
	case typeTableLeaf:
		_, n1 := uvarint(b)
		total, n2 := uvarint(b[n1:])
		inline := int(total)
		ln := n1 + n2
		if inline > maxLocal(len(d)) {
			inline = minLocal(len(d))
			ln += inline + 4
		} else {
			ln += inline
		}
		return ln
	case typeTableInterior:
		_, n := uvarint(b[4:])
		return 4 + n
	case typeIndexLeaf:
		total, n1 := uvarint(b)
		inline := int(total)
		ln := n1
		if inline > maxLocal(len(d)) {
			inline = minLocal(len(d))
			ln += inline + 4
		} else {
			ln += inline
		}
		return ln
	case typeIndexInterior:
		klen, n := uvarint(b[4:])
		return 4 + n + int(klen)
	default:
		return 0
	}
}

// ---- overflow chains ----

// writeOverflow spills data into a chain of overflow pages, returning
// the first page number.
func (t *Tree) writeOverflow(data []byte) (pager.Pgno, error) {
	if len(data) == 0 {
		return 0, nil
	}
	cap_ := usableOverflow(t.pg.PageSize())
	pg, err := t.pg.Allocate()
	if err != nil {
		return 0, err
	}
	first := pg.Pgno()
	for {
		d := pg.Data()
		clear(d)
		d[offType] = typeOverflow
		n := min(len(data), cap_)
		putU16(d, 5, uint16(n))
		copy(d[ovflHdrSize:], data[:n])
		data = data[n:]
		if len(data) == 0 {
			putU32(d, 1, 0)
			pg.Release()
			return first, nil
		}
		next, err := t.pg.Allocate()
		if err != nil {
			pg.Release()
			return 0, err
		}
		putU32(d, 1, uint32(next.Pgno()))
		pg.Release()
		pg = next
	}
}

// errChain is what both chain walks below return for a chain that cannot
// be one: a page of another type, a length past the page, or more links
// than the file has pages — a cycle, which would otherwise spin the read
// (a zero-length page pointing at itself) or free its pages twice.
var errChain = fmt.Errorf("%w: overflow chain", ErrCorrupt)

// readOverflow appends a chain's contents to dst.
func (t *Tree) readOverflow(first pager.Pgno, dst []byte, want int) ([]byte, error) {
	for pgno, left := first, t.pg.NPages(); pgno != 0 && len(dst) < want; left-- {
		pg, err := t.pg.Get(pgno)
		if err != nil {
			return nil, err
		}
		d := pg.Data()
		n := int(getU16(d, 5))
		if left == 0 || d[offType] != typeOverflow || ovflHdrSize+n > len(d) {
			pg.Release()
			return nil, errChain
		}
		dst = append(dst, d[ovflHdrSize:ovflHdrSize+n]...)
		pgno = pager.Pgno(getU32(d, 1))
		pg.Release()
	}
	return dst, nil
}

// freeOverflow releases a chain back to the pager.
func (t *Tree) freeOverflow(first pager.Pgno) error {
	for pgno, left := first, t.pg.NPages(); pgno != 0; left-- {
		if left == 0 {
			return errChain
		}
		pg, err := t.pg.Get(pgno)
		if err != nil {
			return err
		}
		next := pager.Pgno(getU32(pg.Data(), 1))
		pg.Release()
		if err := t.pg.Free(pgno); err != nil {
			return err
		}
		pgno = next
	}
	return nil
}

// buildLeafCell prepares a leaf cell, spilling payload as needed.
func (t *Tree) buildLeafCell(pageType byte, rowid int64, key, payload []byte) (cell, error) {
	var full []byte
	if pageType == typeTableLeaf {
		full = payload
	} else {
		full = key
	}
	c := cell{rowid: rowid, total: len(full)}
	ml := maxLocal(t.pg.PageSize())
	if len(full) <= ml {
		if pageType == typeTableLeaf {
			c.payload = full
		} else {
			c.key = full
		}
	} else {
		inline := minLocal(t.pg.PageSize())
		ovfl, err := t.writeOverflow(full[inline:])
		if err != nil {
			return c, err
		}
		c.ovfl = ovfl
		if pageType == typeTableLeaf {
			c.payload = full[:inline]
		} else {
			c.key = full[:inline]
		}
	}
	return c, nil
}

// owned materializes a leaf cell's complete key or payload in a fresh
// buffer, following the overflow chain of one that spills.
func (t *Tree) owned(inline []byte, total int, ovfl pager.Pgno) ([]byte, error) {
	return t.readOverflow(ovfl, append([]byte(nil), inline...), total)
}

// whole is owned without the copy where nothing spills: the inline bytes
// themselves, aliasing the page.
func (t *Tree) whole(inline []byte, total int, ovfl pager.Pgno) ([]byte, error) {
	if ovfl == 0 {
		return inline, nil
	}
	return t.owned(inline, total, ovfl)
}

// ---- search ----

// compareAt orders the probe against the key of cell i, on any page type.
func (t *Tree) compareAt(d []byte, i int, rowid int64, key []byte) (int, error) {
	b, err := cellAt(d, i)
	if err == nil && !isLeaf(d) {
		_, b, err = childOf(b)
	}
	if err != nil {
		return 0, err
	}
	var k []byte
	switch d[offType] {
	case typeTableLeaf, typeTableInterior:
		rid, _, err := rowidOf(b)
		return cmp.Compare(rowid, rid), err
	case typeIndexLeaf:
		var total int
		var ovfl pager.Pgno
		if k, total, ovfl, _, err = leafBody(b, len(d)); err == nil {
			k, err = t.whole(k, total, ovfl)
		}
	case typeIndexInterior:
		k, _, err = sepOf(b)
	default:
		err = fmt.Errorf("%w: type %d", ErrCorrupt, d[offType])
	}
	if err != nil {
		return 0, err
	}
	return t.cmp(key, k), nil
}

// search locates a key within a page: the first slot whose key is >= the
// probe (nCells when none is), with found=true on equality. Cells are
// sorted on every page type — an interior cell's key is the greatest in
// its child — so one binary search serves leaves and interiors alike.
func (t *Tree) search(d []byte, rowid int64, key []byte) (int, bool, error) {
	lo, hi, found := 0, nCells(d), false
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		r, err := t.compareAt(d, mid, rowid, key)
		if err != nil {
			return 0, false, err
		}
		if r > 0 {
			lo = mid + 1
		} else {
			hi, found = mid, r == 0
		}
	}
	return lo, found, nil
}

// interiorChild chooses which child to descend for a key: that of the
// first cell whose key is >= the probe, else the right-most.
func (t *Tree) interiorChild(d []byte, rowid int64, key []byte) (pager.Pgno, error) {
	idx, _, err := t.search(d, rowid, key)
	if err != nil {
		return 0, err
	}
	if idx == nCells(d) {
		return pager.Pgno(getU32(d, offRight)), nil
	}
	b, err := cellAt(d, idx)
	if err != nil {
		return 0, err
	}
	child, _, err := childOf(b)
	return child, err
}

// leafFor descends to the leaf that holds, or would hold, a key and
// returns it pinned, releasing each interior page before it gets the next.
// The path it took becomes the hint.
func (t *Tree) leafFor(rowid int64, key []byte) (*pager.Page, error) {
	began := t.pg.Gen()
	t.path = t.path[:0]
	pgno := t.root
	for {
		pg, err := t.pg.Get(pgno)
		if err != nil {
			return nil, err
		}
		t.path = append(t.path, pgno)
		if isLeaf(pg.Data()) {
			t.stamp(began)
			return pg, nil
		}
		next, err := t.interiorChild(pg.Data(), rowid, key)
		pg.Release()
		if err != nil {
			return nil, err
		}
		if next == 0 {
			return nil, fmt.Errorf("%w: nil child", ErrCorrupt)
		}
		pgno = next
	}
}

// stamp makes the path just descended the hint, good for the current
// pager generation if every page on it is still cached. The descent began
// at generation began; unless it evicted, it can have evicted none of its
// own. A path that lost a page keeps began, which the generation has left
// for good.
func (t *Tree) stamp(began uint64) {
	if t.pathGen = t.pg.Gen(); t.pathGen == began {
		return
	}
	for _, pgno := range t.path {
		pg := t.pg.Cached(pgno)
		if pg == nil {
			t.pathGen = began
			return
		}
		pg.Release()
	}
}

// hinted reports whether a point access for rowid may skip its descent
// and take the last descent's path as it lies. The path must be good for
// the current pager generation: every page on it was cached when it was
// stamped, and since then no page has left the cache, been freed or been
// allocated, so every page on it is still cached and it is still the
// tree's path to that leaf. And the leaf must cover rowid (see covers).
// The check pins nothing, so it leaves the frame list as it found it.
func (t *Tree) hinted(rowid int64) bool {
	if len(t.path) == 0 || t.pathGen != t.pg.Gen() {
		return false
	}
	leaf := t.pg.Peek(t.path[len(t.path)-1])
	return leaf != nil && covers(leaf.Data(), rowid)
}

// rowLeaf returns, pinned, the table leaf that holds rowid or would hold
// it, for a read: the hinted leaf, else the one leafFor reaches. A hinted
// read pins and unpins each page above the leaf in turn, as the descent it
// stands for would, and then pins the leaf: every step is a cache hit and
// the frame list ends in the descent's order, so the skipped search is
// all the hint saves, and no later eviction can tell.
func (t *Tree) rowLeaf(rowid int64) (*pager.Page, error) {
	if !t.hinted(rowid) {
		return t.leafFor(rowid, nil)
	}
	leaf := len(t.path) - 1
	for _, pgno := range t.path[:leaf] {
		t.pg.Cached(pgno).Release()
	}
	return t.pg.Cached(t.path[leaf]), nil
}

// pinPath pins into t.pins the path from the root to the leaf that holds,
// or would hold, a key, as a write holds it: every page stays pinned until
// unpin. The hinted path is pinned as it lies, root first, as a descent
// pins it; otherwise a descent gets each page while holding the one above,
// and records the path it took. The leaf is t.pins' last page.
func (t *Tree) pinPath(rowid int64, key []byte) error {
	if t.hinted(rowid) {
		for _, pgno := range t.path {
			t.pins = append(t.pins, t.pg.Cached(pgno))
		}
		return nil
	}
	began := t.pg.Gen()
	t.path = t.path[:0]
	for pgno := t.root; ; {
		pg, err := t.pg.Get(pgno)
		if err != nil {
			t.unpin()
			return err
		}
		t.pins, t.path = append(t.pins, pg), append(t.path, pgno)
		if isLeaf(pg.Data()) {
			t.stamp(began)
			return nil
		}
		if pgno, err = t.interiorChild(pg.Data(), rowid, key); err == nil && pgno == 0 {
			err = fmt.Errorf("%w: nil child", ErrCorrupt)
		}
		if err != nil {
			t.unpin()
			return err
		}
	}
}

// unpin releases what pinPath pinned.
func (t *Tree) unpin() {
	for _, pg := range t.pins {
		pg.Release()
	}
	clear(t.pins)
	t.pins = t.pins[:0]
}

// covers reports whether d is the leaf a descent for rowid reaches: a
// non-empty table leaf whose first cell <= rowid <= its last, or the last
// leaf, rowid past its last cell (SQLite's append bias).
func covers(d []byte, rowid int64) bool {
	n := nCells(d)
	if d[offType] != typeTableLeaf || n == 0 {
		return false
	}
	first, err := rowidAt(d, 0)
	if err != nil || rowid < first {
		return false
	}
	last, err := rowidAt(d, n-1)
	return err == nil && (rowid <= last || getU32(d, offRight) == 0)
}

// rowidAt reads the rowid of table leaf cell i.
func rowidAt(d []byte, i int) (int64, error) {
	b, err := cellAt(d, i)
	if err != nil {
		return 0, err
	}
	rid, _, err := rowidOf(b)
	return rid, err
}

// View calls fn with a table row's payload while its page is pinned:
// the bytes alias the page (a spilled row's, a buffer of this call) and
// are dead once fn returns. ok reports whether the row exists.
func (t *Tree) View(rowid int64, fn func(payload []byte) error) (bool, error) {
	if t.kind != KindTable {
		return false, ErrWrongKind
	}
	pg, err := t.rowLeaf(rowid)
	if err != nil {
		return false, err
	}
	defer pg.Release()
	d := pg.Data()
	idx, found, err := t.search(d, rowid, nil)
	if err != nil || !found {
		return false, err
	}
	c, err := t.parseCell(d, idx)
	if err == nil {
		c.payload, err = t.whole(c.payload, c.total, c.ovfl)
	}
	if err != nil {
		return false, err
	}
	return true, fn(c.payload)
}

// Get fetches a copy of a table row's payload by rowid.
func (t *Tree) Get(rowid int64) ([]byte, bool, error) {
	var out []byte
	ok, err := t.View(rowid, func(payload []byte) error {
		out = append([]byte(nil), payload...)
		return nil
	})
	return out, ok, err
}

// splitResult propagates a page split upward.
type splitResult struct {
	sepRowid int64
	sepKey   []byte
	right    pager.Pgno
}

// Insert adds or replaces a table row. A row that fits its leaf is stored
// there; one that does not descends again from the root, all hits, to
// split on the way back up.
func (t *Tree) Insert(rowid int64, payload []byte) error {
	if t.kind != KindTable {
		return ErrWrongKind
	}
	c, err := t.buildLeafCell(typeTableLeaf, rowid, nil, payload)
	if err != nil {
		return err
	}
	if err := t.pinPath(rowid, nil); err != nil {
		return err
	}
	stored, err := t.storeAtLeaf(c)
	t.unpin()
	if err != nil || stored {
		return err
	}
	return t.insertCell(c, nil)
}

// storeAtLeaf stores c in the leaf pinPath pinned if it fits there without
// a split, reporting whether it did.
func (t *Tree) storeAtLeaf(c cell) (bool, error) {
	pg := t.pins[len(t.pins)-1]
	d := pg.Data()
	idx, old, err := t.slot(d, c.rowid, nil)
	if err != nil || !fits(d, old, cellSize(d[offType], c)) {
		return false, err
	}
	if err := t.pg.Write(pg); err != nil {
		return false, err
	}
	return t.store(d, idx, old, c)
}

// InsertKey adds an index entry (keys must be unique; the engine
// appends the rowid to enforce that).
func (t *Tree) InsertKey(key []byte) error {
	if t.kind != KindIndex {
		return ErrWrongKind
	}
	c, err := t.buildLeafCell(typeIndexLeaf, 0, key, nil)
	if err != nil {
		return err
	}
	return t.insertCell(c, key)
}

func (t *Tree) insertCell(c cell, key []byte) error {
	split, err := t.insertInto(t.root, c, key, true)
	if err != nil {
		return err
	}
	if split != nil {
		return t.splitRoot(*split)
	}
	return nil
}

// splitRoot grows the tree by one level, keeping the root page number
// stable: the root's current content moves to a fresh page that becomes
// the left child.
func (t *Tree) splitRoot(s splitResult) error {
	rootPg, err := t.pg.Get(t.root)
	if err != nil {
		return err
	}
	defer rootPg.Release()
	if err := t.pg.Write(rootPg); err != nil {
		return err
	}
	leftPg, err := t.pg.Allocate()
	if err != nil {
		return err
	}
	defer leftPg.Release()
	copy(leftPg.Data(), rootPg.Data())

	d := rootPg.Data()
	interiorType := byte(typeTableInterior)
	if t.kind == KindIndex {
		interiorType = typeIndexInterior
	}
	initPage(d, interiorType)
	sep := cell{child: leftPg.Pgno(), rowid: s.sepRowid, key: s.sepKey}
	raw := encodeCell(interiorType, sep)
	if !insertCellAt(d, 0, raw) {
		return fmt.Errorf("%w: root separator does not fit", ErrCorrupt)
	}
	putU32(d, offRight, uint32(s.right))
	return nil
}

// insertInto descends to the leaf for the cell and inserts, splitting
// on the way back up as needed. rightmost says pgno is its parent's
// rightmost child, or the root.
func (t *Tree) insertInto(pgno pager.Pgno, c cell, key []byte, rightmost bool) (*splitResult, error) {
	pg, err := t.pg.Get(pgno)
	if err != nil {
		return nil, err
	}
	defer pg.Release()
	d := pg.Data()

	if isLeaf(d) {
		if cellSize(d[offType], c)+ptrSize > len(d)-hdrSize {
			return nil, ErrTooLarge
		}
		if err := t.pg.Write(pg); err != nil {
			return nil, err
		}
		idx, old, err := t.slot(d, c.rowid, key)
		if err != nil {
			return nil, err
		}
		if ok, err := t.store(d, idx, old, c); ok || err != nil {
			return nil, err
		}
		return t.splitLeaf(pg, idx, encodeCell(d[offType], c), rightmost)
	}

	child, err := t.interiorChild(d, c.rowid, key)
	if err != nil {
		return nil, err
	}
	if child == 0 {
		return nil, fmt.Errorf("%w: nil child in insert", ErrCorrupt)
	}
	split, err := t.insertInto(child, c, key, child == pager.Pgno(getU32(d, offRight)))
	if err != nil || split == nil {
		return nil, err
	}
	// The child split: insert a separator cell routing to the old child
	// and point the old reference at the new right sibling.
	if err := t.pg.Write(pg); err != nil {
		return nil, err
	}
	interiorType := d[offType]
	sep := cell{child: child, rowid: split.sepRowid, key: split.sepKey}
	raw := encodeCell(interiorType, sep)
	// Find the position of the child reference.
	n := nCells(d)
	pos := n
	for i := 0; i < n; i++ {
		ci, err := t.parseCell(d, i)
		if err != nil {
			return nil, err
		}
		if ci.child == child {
			pos = i
			break
		}
	}
	if pos == n {
		putU32(d, offRight, uint32(split.right))
	} else {
		// Rewrite the existing cell to point at the right sibling.
		ci, err := t.parseCell(d, pos)
		if err != nil {
			return nil, err
		}
		rewritten := ci
		rewritten.child = split.right
		newRaw := encodeCell(interiorType, rewritten)
		removeCellAt(d, pos, len(ci.raw))
		if !insertCellAt(d, pos, newRaw) {
			return nil, fmt.Errorf("%w: interior rewrite does not fit", ErrCorrupt)
		}
	}
	if insertCellAt(d, pos, raw) {
		return nil, nil
	}
	return t.splitInterior(pg, pos, raw)
}

// slot finds the probe's place in leaf d: its slot, and the cell there if
// that holds the probe's key (raw nil if none does).
func (t *Tree) slot(d []byte, rowid int64, key []byte) (int, cell, error) {
	idx, found, err := t.search(d, rowid, key)
	if err != nil || !found {
		return idx, cell{}, err
	}
	old, err := t.parseCell(d, idx)
	return idx, old, err
}

// fits reports whether a cell of size bytes goes into leaf d in place of
// old (raw nil: none) without a split.
func fits(d []byte, old cell, size int) bool {
	if old.raw != nil && len(old.raw) == size {
		return true
	}
	free := freeSpace(d)
	if old.raw != nil {
		free += len(old.raw) + ptrSize
	}
	return free >= size+ptrSize
}

// store puts c at slot idx of leaf d, which the caller has made writable,
// in place of old (raw nil: none), freeing what old spilled. A cell of
// old's encoded size — an UPDATE of a fixed-width column — is encoded
// straight over it, so a full leaf is not defragmented; otherwise old goes
// and c is encoded into the slot. It reports false, old already gone, when
// c does not fit: the caller splits.
func (t *Tree) store(d []byte, idx int, old, c cell) (bool, error) {
	pageType, size := d[offType], cellSize(d[offType], c)
	if old.raw != nil {
		if old.ovfl != 0 {
			if err := t.freeOverflow(old.ovfl); err != nil {
				return false, err
			}
		}
		if len(old.raw) == size {
			appendCell(old.raw[:0], pageType, c)
			return true, nil
		}
		removeCellAt(d, idx, len(old.raw))
	}
	dst := reserveCellAt(d, idx, size)
	if dst == nil {
		return false, nil
	}
	appendCell(dst[:0], pageType, c)
	return true, nil
}

// remove deletes the probe's cell from the leaf pinPath pinned, freeing
// what it spilled; ok reports whether there was one.
func (t *Tree) remove(rowid int64, key []byte) (bool, error) {
	pg := t.pins[len(t.pins)-1]
	d := pg.Data()
	idx, found, err := t.search(d, rowid, key)
	if err != nil || !found {
		return false, err
	}
	if err := t.pg.Write(pg); err != nil {
		return false, err
	}
	c, err := t.parseCell(d, idx)
	if err != nil {
		return false, err
	}
	if c.ovfl != 0 {
		if err := t.freeOverflow(c.ovfl); err != nil {
			return false, err
		}
	}
	removeCellAt(d, idx, len(c.raw))
	return true, nil
}

// collectCells decodes every raw cell on a page.
func collectRaw(d []byte) [][]byte {
	n := nCells(d)
	out := make([][]byte, 0, n+1)
	for i := 0; i < n; i++ {
		off := cellPtr(d, i)
		ln := cellLen(d, off)
		raw := make([]byte, ln)
		copy(raw, d[off:off+ln])
		out = append(out, raw)
	}
	return out
}

// splitLeaf distributes a leaf's cells (plus one incoming raw cell at
// slot idx) across the old page and a new right sibling, cutting at the
// middle. A table leaf that is its parent's rightmost child (rightmost),
// overflowing by a cell past its last, is SQLite's balance_quick case:
// the incoming cell alone moves right and the old leaf stays full, so a
// load in key order packs its leaves.
func (t *Tree) splitLeaf(pg *pager.Page, idx int, raw []byte, rightmost bool) (*splitResult, error) {
	d := pg.Data()
	pageType := d[offType]
	cells := collectRaw(d)
	cells = append(cells[:idx], append([][]byte{raw}, cells[idx:]...)...)
	mid := (len(cells) + 1) / 2
	if rightmost && idx == len(cells)-1 && pageType == typeTableLeaf {
		mid = idx
	}

	rightPg, err := t.pg.Allocate()
	if err != nil {
		return nil, err
	}
	defer rightPg.Release()
	rd := rightPg.Data()
	nextLeaf := getU32(d, offRight)

	initPage(d, pageType)
	initPage(rd, pageType)
	for i, c := range cells[:mid] {
		if !insertCellAt(d, i, c) {
			return nil, fmt.Errorf("%w: split left overflow", ErrCorrupt)
		}
	}
	for i, c := range cells[mid:] {
		if !insertCellAt(rd, i, c) {
			return nil, fmt.Errorf("%w: split right overflow", ErrCorrupt)
		}
	}
	// Leaf chain: left -> right -> old next.
	putU32(d, offRight, uint32(rightPg.Pgno()))
	putU32(rd, offRight, nextLeaf)

	// Separator: greatest key of the left page.
	last, err := t.parseCell(d, mid-1)
	if err != nil {
		return nil, err
	}
	res := &splitResult{right: rightPg.Pgno()}
	if pageType == typeTableLeaf {
		res.sepRowid = last.rowid
	} else {
		if res.sepKey, err = t.owned(last.key, last.total, last.ovfl); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// splitInterior splits an interior page around its middle cell, whose
// key moves up as the separator.
func (t *Tree) splitInterior(pg *pager.Page, idx int, raw []byte) (*splitResult, error) {
	d := pg.Data()
	cells := collectRaw(d)
	cells = append(cells[:idx], append([][]byte{raw}, cells[idx:]...)...)
	right := getU32(d, offRight)
	pageType := d[offType]
	mid := len(cells) / 2

	// Parse the middle cell for promotion.
	midCell, err := decodeCell(pageType, len(d), cells[mid])
	if err != nil {
		return nil, err
	}

	rightPg, err := t.pg.Allocate()
	if err != nil {
		return nil, err
	}
	defer rightPg.Release()
	rd := rightPg.Data()
	initPage(rd, pageType)
	for i, c := range cells[mid+1:] {
		if !insertCellAt(rd, i, c) {
			return nil, fmt.Errorf("%w: interior split right overflow", ErrCorrupt)
		}
	}
	putU32(rd, offRight, right)

	initPage(d, pageType)
	for i, c := range cells[:mid] {
		if !insertCellAt(d, i, c) {
			return nil, fmt.Errorf("%w: interior split left overflow", ErrCorrupt)
		}
	}
	putU32(d, offRight, uint32(midCell.child))

	res := &splitResult{right: rightPg.Pgno(), sepRowid: midCell.rowid}
	if pageType == typeIndexInterior {
		res.sepKey = append([]byte(nil), midCell.key...)
	}
	return res, nil
}

// Delete removes a table row by rowid; ok reports whether it existed.
func (t *Tree) Delete(rowid int64) (bool, error) {
	if t.kind != KindTable {
		return false, ErrWrongKind
	}
	return t.deleteKey(rowid, nil)
}

// DeleteKey removes an index entry; ok reports whether it existed.
func (t *Tree) DeleteKey(key []byte) (bool, error) {
	if t.kind != KindIndex {
		return false, ErrWrongKind
	}
	return t.deleteKey(0, key)
}

// deleteKey finds the leaf and removes the cell: a delete never changes an
// interior page.
func (t *Tree) deleteKey(rowid int64, key []byte) (bool, error) {
	if err := t.pinPath(rowid, key); err != nil {
		return false, err
	}
	defer t.unpin()
	return t.remove(rowid, key)
}

// MaxRowid reports the largest rowid in a table tree (0 when empty).
func (t *Tree) MaxRowid() (int64, error) {
	if t.kind != KindTable {
		return 0, ErrWrongKind
	}
	pgno := t.root
	for {
		pg, err := t.pg.Get(pgno)
		if err != nil {
			return 0, err
		}
		d := pg.Data()
		if !isLeaf(d) {
			next := pager.Pgno(getU32(d, offRight))
			pg.Release()
			pgno = next
			continue
		}
		// Rightmost leaf; but emptied leaves may trail, so walk the
		// chain remembering the last key seen.
		var best int64
		for {
			if n := nCells(d); n > 0 {
				c, err := t.parseCell(d, n-1)
				if err != nil {
					pg.Release()
					return 0, err
				}
				if c.rowid > best {
					best = c.rowid
				}
			}
			next := pager.Pgno(getU32(d, offRight))
			pg.Release()
			if next == 0 {
				return best, nil
			}
			var err error
			pg, err = t.pg.Get(next)
			if err != nil {
				return 0, err
			}
			d = pg.Data()
		}
	}
}

// Leaf is what Leaves reports of one leaf page.
type Leaf struct {
	Cells     int
	Free      int  // bytes a new cell and its pointer could take
	Rightmost bool // the page is its parent's rightmost child, or the root
}

// Leaves walks a table tree in key order and calls fn for each leaf,
// checking what it passes: rowids ascend within and across pages, no cell
// exceeds the divider above it, and the leaf chain links the leaves in
// walk order. A break is ErrCorrupt.
func (t *Tree) Leaves(fn func(Leaf) error) error {
	if t.kind != KindTable {
		return ErrWrongKind
	}
	w := leafWalk{t: t, fn: fn, prev: math.MinInt64}
	if err := w.visit(t.root, math.MaxInt64, true); err != nil {
		return err
	}
	if w.next != 0 {
		return fmt.Errorf("%w: leaf chain runs past the last leaf", ErrCorrupt)
	}
	return nil
}

// leafWalk is one Leaves walk: the last rowid it passed, and the page the
// last leaf's chain link names (seen: there was a last leaf).
type leafWalk struct {
	t    *Tree
	fn   func(Leaf) error
	prev int64
	next pager.Pgno
	seen bool
}

// visit walks the subtree at pgno, whose rowids are at most bound.
func (w *leafWalk) visit(pgno pager.Pgno, bound int64, rightmost bool) error {
	pg, err := w.t.pg.Get(pgno)
	if err != nil {
		return err
	}
	defer pg.Release()
	d := pg.Data()
	if isLeaf(d) {
		if w.seen && pgno != w.next {
			return fmt.Errorf("%w: leaf %d is not chained after the leaf before it", ErrCorrupt, pgno)
		}
		for i := range nCells(d) {
			rid, err := rowidAt(d, i)
			if err != nil {
				return err
			}
			if rid <= w.prev || rid > bound {
				return fmt.Errorf("%w: rowid %d on leaf %d out of order", ErrCorrupt, rid, pgno)
			}
			w.prev = rid
		}
		w.seen, w.next = true, pager.Pgno(getU32(d, offRight))
		return w.fn(Leaf{Cells: nCells(d), Free: freeSpace(d), Rightmost: rightmost})
	}
	for i := range nCells(d) {
		b, err := cellAt(d, i)
		if err != nil {
			return err
		}
		child, rest, err := childOf(b)
		if err != nil {
			return err
		}
		sep, _, err := rowidOf(rest)
		if err != nil {
			return err
		}
		if sep > bound {
			return fmt.Errorf("%w: divider %d on page %d out of order", ErrCorrupt, sep, pgno)
		}
		if err := w.visit(child, sep, false); err != nil {
			return err
		}
	}
	return w.visit(pager.Pgno(getU32(d, offRight)), bound, true)
}

// Drop frees every page of the tree except the root, which is reset to
// an empty leaf (so the root page number stays valid), then frees the
// root too if requested by the engine via pager.Free.
func (t *Tree) Drop() error {
	if err := t.dropSubtree(t.root, false); err != nil {
		return err
	}
	pg, err := t.pg.Get(t.root)
	if err != nil {
		return err
	}
	defer pg.Release()
	if err := t.pg.Write(pg); err != nil {
		return err
	}
	leafType := byte(typeTableLeaf)
	if t.kind == KindIndex {
		leafType = typeIndexLeaf
	}
	initPage(pg.Data(), leafType)
	return nil
}

func (t *Tree) dropSubtree(pgno pager.Pgno, freeSelf bool) error {
	pg, err := t.pg.Get(pgno)
	if err != nil {
		return err
	}
	d := pg.Data()
	n := nCells(d)
	if isLeaf(d) {
		for i := 0; i < n; i++ {
			c, err := t.parseCell(d, i)
			if err != nil {
				pg.Release()
				return err
			}
			if c.ovfl != 0 {
				if err := t.freeOverflow(c.ovfl); err != nil {
					pg.Release()
					return err
				}
			}
		}
	} else {
		children := make([]pager.Pgno, 0, n+1)
		for i := 0; i < n; i++ {
			c, err := t.parseCell(d, i)
			if err != nil {
				pg.Release()
				return err
			}
			children = append(children, c.child)
		}
		if r := pager.Pgno(getU32(d, offRight)); r != 0 {
			children = append(children, r)
		}
		pg.Release()
		for _, ch := range children {
			if err := t.dropSubtree(ch, true); err != nil {
				return err
			}
		}
		if freeSelf {
			return t.pg.Free(pgno)
		}
		return nil
	}
	pg.Release()
	if freeSelf {
		return t.pg.Free(pgno)
	}
	return nil
}
