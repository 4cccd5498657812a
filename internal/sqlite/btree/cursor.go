package btree

import (
	"fmt"
	"math"

	"repro/internal/sqlite/pager"
)

// Cursor iterates a tree in key order via the leaf sibling chain. A
// cursor is a snapshot-free iterator: mutating the tree invalidates it
// (the executor materializes its target rowids before modifying, as
// SQLite's own OP_Delete/OP_Insert loops effectively do).
type Cursor struct {
	t     *Tree
	pgno  pager.Pgno
	idx   int
	valid bool
}

// SeekFirst positions a cursor on the smallest entry: the seek for a key
// below every other (no rowid is smaller; the empty key is a prefix of
// all, which Compare orders first).
func (t *Tree) SeekFirst() (*Cursor, error) {
	return t.seek(math.MinInt64, nil)
}

// Seek positions a table cursor on the first entry with rowid >= the
// probe.
func (t *Tree) SeekRowid(rowid int64) (*Cursor, error) {
	if t.kind != KindTable {
		return nil, ErrWrongKind
	}
	return t.seek(rowid, nil)
}

// SeekKey positions an index cursor on the first entry with key >= the
// probe.
func (t *Tree) SeekKey(key []byte) (*Cursor, error) {
	if t.kind != KindIndex {
		return nil, ErrWrongKind
	}
	return t.seek(0, key)
}

func (t *Tree) seek(rowid int64, key []byte) (*Cursor, error) {
	pg, err := t.leafFor(rowid, key)
	if err != nil {
		return nil, err
	}
	idx, _, err := t.search(pg.Data(), rowid, key)
	pgno := pg.Pgno()
	pg.Release()
	if err != nil {
		return nil, err
	}
	c := &Cursor{t: t, pgno: pgno, idx: idx, valid: true}
	return c, c.skipEmpty()
}

// Valid reports whether the cursor points at an entry.
func (c *Cursor) Valid() bool { return c.valid }

// skipEmpty advances past exhausted leaves (deletions leave them in the
// chain).
func (c *Cursor) skipEmpty() error {
	for c.valid {
		pg, err := c.t.pg.Get(c.pgno)
		if err != nil {
			return err
		}
		d := pg.Data()
		n := nCells(d)
		next := pager.Pgno(getU32(d, offRight))
		pg.Release()
		if c.idx < n {
			return nil
		}
		if next == 0 {
			c.valid = false
			return nil
		}
		c.pgno = next
		c.idx = 0
	}
	return nil
}

// Next advances to the following entry.
func (c *Cursor) Next() error {
	if !c.valid {
		return nil
	}
	c.idx++
	return c.skipEmpty()
}

// cell pins the leaf under the cursor and decodes the entry there; its
// byte fields alias the page until the caller releases it.
func (c *Cursor) cell(kind Kind) (*pager.Page, cell, error) {
	if c.t.kind != kind {
		return nil, cell{}, ErrWrongKind
	}
	if !c.valid {
		return nil, cell{}, ErrNotFound
	}
	pg, err := c.t.pg.Get(c.pgno)
	if err != nil {
		return nil, cell{}, err
	}
	d := pg.Data()
	if c.idx >= nCells(d) {
		pg.Release()
		return nil, cell{}, fmt.Errorf("%w: cursor past end", ErrCorrupt)
	}
	cl, err := c.t.parseCell(d, c.idx)
	if err != nil {
		pg.Release()
		return nil, cell{}, err
	}
	return pg, cl, nil
}

// Rowid reports the current table entry's rowid.
func (c *Cursor) Rowid() (int64, error) {
	pg, cl, err := c.cell(KindTable)
	if err != nil {
		return 0, err
	}
	pg.Release()
	return cl.rowid, nil
}

// Payload materializes the current table entry's full payload.
func (c *Cursor) Payload() ([]byte, error) {
	pg, cl, err := c.cell(KindTable)
	if err != nil {
		return nil, err
	}
	defer pg.Release()
	return c.t.owned(cl.payload, cl.total, cl.ovfl)
}

// Key materializes the current index entry's full key.
func (c *Cursor) Key() ([]byte, error) {
	pg, cl, err := c.cell(KindIndex)
	if err != nil {
		return nil, err
	}
	defer pg.Release()
	return c.t.owned(cl.key, cl.total, cl.ovfl)
}
