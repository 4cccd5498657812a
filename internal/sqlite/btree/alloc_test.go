//go:build !race

package btree

import "testing"

// The read path works in place over the pinned page: descending the
// interior levels of a three-level tree allocates nothing, and a point Get
// allocates the payload copy it returns and nothing else; a point write
// that fits where the old row lay is encoded over it and allocates
// nothing, and neither does a SELECT-then-UPDATE pair on the hinted leaf.
// (Not under -race: the race runtime allocates.)
func TestPointReadAllocs(t *testing.T) {
	ps := newPagerSized(t, 1000) // the whole tree stays cached: a miss allocates its Page
	ps.begin()
	root, err := CreateTable(ps.p)
	if err != nil {
		t.Fatal(err)
	}
	tr := OpenTable(ps.p, root)
	const rows = 8000
	for i := int64(1); i <= rows; i++ {
		if err := tr.Insert(i, payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	ps.commit()
	if levels := depth(t, tr); levels < 3 {
		t.Fatalf("tree of %d rows has %d levels, want 3", rows, levels)
	}
	rowid := int64(0)
	next := func() int64 { rowid = rowid%rows + 1; return rowid }
	if allocs := testing.AllocsPerRun(rows, func() {
		pg, err := tr.leafFor(next(), nil)
		if err != nil {
			t.Fatal(err)
		}
		pg.Release()
	}); allocs != 0 {
		t.Errorf("an interior descent allocates %.1f objects, want none", allocs)
	}
	if allocs := testing.AllocsPerRun(rows, func() {
		if _, ok, err := tr.Get(next()); err != nil || !ok {
			t.Fatalf("Get(%d): ok %v err %v", rowid, ok, err)
		}
	}); allocs > 1 {
		t.Errorf("a point Get allocates %.1f objects, want only the payload it returns", allocs)
	}
	// Replacing a row by one of the same size — an UPDATE of a fixed-width
	// column — encodes the new cell straight over the old.
	ps.begin()
	defer ps.commit()
	payloads := make([][]byte, rows+1)
	for i := int64(1); i <= rows; i++ {
		payloads[i] = payloadFor(i)
		if err := tr.Insert(i, payloads[i]); err != nil { // every leaf journalled before the count
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(rows, func() {
		if err := tr.Insert(next(), payloads[rowid]); err != nil {
			t.Fatalf("Insert(%d): %v", rowid, err)
		}
	}); allocs != 0 {
		t.Errorf("a same-size replace allocates %.1f objects, want none", allocs)
	}
	// A lookup then an overwrite of the same row: the second finds its leaf
	// by the hint the first left.
	view := func([]byte) error { return nil }
	if allocs := testing.AllocsPerRun(rows, func() {
		if ok, err := tr.View(next(), view); err != nil || !ok {
			t.Fatalf("View(%d): ok %v err %v", rowid, ok, err)
		}
		if !tr.hinted(rowid) {
			t.Fatalf("View(%d) leaves no usable hint", rowid)
		}
		if err := tr.Insert(rowid, payloads[rowid]); err != nil {
			t.Fatalf("Insert(%d): %v", rowid, err)
		}
	}); allocs != 0 {
		t.Errorf("a hinted lookup and overwrite allocate %.1f objects, want none", allocs)
	}
}
