//go:build !race

package nand

import "testing"

// Programming a block that has been programmed and erased before takes
// its page and spare buffers from the chip's free lists: a whole
// program/invalidate/erase cycle allocates nothing. (Not under -race:
// the race runtime allocates.)
func TestProgramAfterEraseNoAllocs(t *testing.T) {
	c, _, _ := newTestChip(t)
	cfg := c.Config()
	data, oob := pageData(cfg, 0x5A), []byte{1, 2, 3}
	cycle := func() {
		for pi := 0; pi < cfg.PagesPerBlock; pi++ {
			p := c.PPNOf(0, pi)
			if err := c.ProgramPageOOB(p, data, oob); err != nil {
				t.Fatal(err)
			}
			if err := c.Invalidate(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.EraseBlock(0); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // first touch carves the buffers
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("program/erase cycle of a recycled block allocates %.1f objects, want 0", allocs)
	}
}

// A blank program points the cell at the shared zero page: even on a
// chip whose free list is empty it takes no payload buffer and carves no
// slab.
func TestBlankProgramTakesNoBuffer(t *testing.T) {
	c, _, _ := newTestChip(t)
	pi := 0
	program := func() {
		if err := c.ProgramPage(c.PPNOf(0, pi), nil); err != nil {
			t.Fatal(err)
		}
		pi++
	}
	if allocs := testing.AllocsPerRun(10, program); allocs != 0 {
		t.Errorf("blank program allocates %.1f objects, want 0", allocs)
	}
	if n := len(c.freeData); n != 0 {
		t.Errorf("free list holds %d buffers after blank programs, want 0", n)
	}
}

// On a young chip, where no block has been erased yet, a page that is
// programmed and then discarded hands its payload buffer to the next
// program: after the first slab, program/discard cycles over fresh pages
// allocate nothing; an invalidated page keeps its buffer until erase, so
// the same cycles with Invalidate carve a slab per block's worth of
// programs. The programs carry no spare record: a discarded page keeps
// its spare area until erase.
func TestProgramDiscardOnYoungChipNoAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.Blocks = 64
	c, err := New(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := pageData(cfg, 0x5A)
	p := PPN(0)
	batch := func() {
		for range 256 {
			if err := c.ProgramPage(p, data); err != nil {
				t.Fatal(err)
			}
			if err := c.Discard(p); err != nil {
				t.Fatal(err)
			}
			p++
		}
	}
	if allocs := testing.AllocsPerRun(2, batch); allocs != 0 {
		t.Errorf("256 program/discard cycles on fresh pages allocate %.1f objects, want 0", allocs)
	}
}

// A copy-back moves no bytes and takes no payload buffer: the destination
// holds the source's. Discarding the source leaves the buffer with the
// copy, and erasing the copy's block returns it to the free list, so
// copy-back, discard and erase cycles allocate nothing once the first has
// carved the buffers. Each source page has bytes of its own, so each
// program takes a buffer.
func TestCopyBackDiscardEraseNoAllocs(t *testing.T) {
	c, _, _ := newTestChip(t)
	cfg := c.Config()
	oob := []byte{4, 5, 6}
	data := make([][]byte, cfg.PagesPerBlock)
	for pi := range data {
		data[pi] = pageData(cfg, byte(pi))
	}
	cycle := func() {
		for pi := 0; pi < cfg.PagesPerBlock; pi++ {
			src, dst := c.PPNOf(0, pi), c.PPNOf(1, pi)
			if err := c.ProgramPageOOB(src, data[pi], oob); err != nil {
				t.Fatal(err)
			}
			if err := c.ProgramCopyBack(dst, src); err != nil {
				t.Fatal(err)
			}
			if err := c.Discard(src); err != nil {
				t.Fatal(err)
			}
			if err := c.Invalidate(dst); err != nil {
				t.Fatal(err)
			}
		}
		for blk := BlockNum(0); blk < 2; blk++ {
			if err := c.EraseBlock(blk); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle()
	free := len(c.freeData)
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("copy-back/discard/erase cycle allocates %.1f objects, want 0", allocs)
	}
	if len(c.freeData) != free || free != cfg.PagesPerBlock {
		t.Errorf("free list holds %d buffers after a cycle (%d after the first), want %d: one per source page", len(c.freeData), free, cfg.PagesPerBlock)
	}
}
