package btree

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/sqlite/pager"
)

// loadRows fills a new table with rows 1..rows of size bytes each, in key
// order or shuffled, and returns it.
func loadRows(t *testing.T, rows, size int, shuffled bool) *Tree {
	t.Helper()
	ps := newPagerSized(t, 1000)
	ps.begin()
	root, err := CreateTable(ps.p)
	if err != nil {
		t.Fatal(err)
	}
	tr := OpenTable(ps.p, root)
	order := make([]int, rows)
	for i := range order {
		order[i] = i
	}
	if shuffled {
		rand.New(rand.NewSource(1)).Shuffle(rows, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, i := range order {
		if err := tr.Insert(int64(i+1), bytes.Repeat([]byte{'r'}, size)); err != nil {
			t.Fatal(err)
		}
	}
	ps.commit()
	return tr
}

// leaves returns a table tree's leaves in key order.
func leaves(t *testing.T, tr *Tree) []Leaf {
	t.Helper()
	var out []Leaf
	if err := tr.Leaves(func(l Leaf) error { out = append(out, l); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

// depth is a tree's number of levels.
func depth(t *testing.T, tr *Tree) int {
	t.Helper()
	levels := 1
	for pgno := tr.root; ; levels++ {
		pg, err := tr.pg.Get(pgno)
		if err != nil {
			t.Fatal(err)
		}
		d := pg.Data()
		pgno = pager.Pgno(getU32(d, offRight))
		leaf := isLeaf(d)
		pg.Release()
		if leaf {
			return levels
		}
	}
}

// A load in key order packs its leaves: a row appended past a full leaf
// at the right edge moves alone to a new leaf (SQLite's balance_quick),
// so every leaf but the last has no room for one more row of the loaded
// size — fixed-width rows, and rows whose cells keep minLocal bytes and
// spill the rest. The control loads the same rows shuffled: those splits
// land inside a leaf and cut its middle, so no leaf but the last is much
// under half full, and the leaves do not pack.
func TestKeyOrderLoadPacksLeaves(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rows, size int
	}{
		{"fixed-width", 8000, 20},
		{"overflow", 2000, 600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := loadRows(t, tc.rows, tc.size, false)
			if levels := depth(t, tr); levels < 3 {
				t.Fatalf("%d rows in key order make %d levels, want two root splits", tc.rows, levels)
			}
			// The largest cell the load made, the last row's, and its pointer.
			c := cell{rowid: int64(tc.rows), total: tc.size, payload: make([]byte, tc.size)}
			if local := minLocal(tr.pg.PageSize()); tc.size > maxLocal(tr.pg.PageSize()) {
				c.payload, c.ovfl = c.payload[:local], 1
			}
			row := cellSize(typeTableLeaf, c) + ptrSize
			packed := leaves(t, tr)
			for i, l := range packed[:len(packed)-1] {
				if l.Free >= row {
					t.Fatalf("leaf %d of %d has %d bytes free, room for another %d-byte row", i, len(packed), l.Free, row)
				}
			}

			shuffled := leaves(t, loadRows(t, tc.rows, tc.size, true))
			half := (tr.pg.PageSize() - hdrSize + row) / 2
			roomy := 0
			for i, l := range shuffled[:len(shuffled)-1] {
				if l.Free > half {
					t.Fatalf("shuffled: leaf %d of %d has %d bytes free, over half a page: not a middle cut", i, len(shuffled), l.Free)
				}
				if l.Free >= row {
					roomy++
				}
			}
			if roomy == 0 || len(shuffled) <= len(packed) {
				t.Fatalf("shuffled: %d leaves, %d with room, against %d packed", len(shuffled), roomy, len(packed))
			}
		})
	}
}

// Only a parent's rightmost child splits by moving one cell. Widening
// the rows of a key-order load from the table's end back, each by more
// than a leaf's slack, makes each full leaf overflow past its last cell;
// one that is not its parent's rightmost child is cut at the middle, so
// the only leaves left holding a single cell are rightmost children.
func TestQuickSplitOnlyAtRightEdge(t *testing.T) {
	const rows, size, wide = 8000, 20, 2*20 + 8
	tr := loadRows(t, rows, size, false)
	if err := tr.pg.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := int64(rows); i >= 1; i-- {
		if err := tr.Insert(i, bytes.Repeat([]byte{'w'}, wide)); err != nil {
			t.Fatal(err)
		}
	}
	splits := 0
	for i, l := range leaves(t, tr) {
		if l.Cells == 1 && !l.Rightmost {
			t.Fatalf("leaf %d holds one cell and is not its parent's rightmost child", i)
		}
		if l.Cells == 1 {
			splits++
		}
	}
	if splits == 0 {
		t.Fatal("no rightmost child split past its last cell: the widening never reached the right-edge case")
	}
	for i := int64(1); i <= rows; i++ {
		if got, ok, err := tr.Get(i); err != nil || !ok || len(got) != wide {
			t.Fatalf("Get(%d) = %d bytes, %v, %v", i, len(got), ok, err)
		}
	}
}
