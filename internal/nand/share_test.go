package nand

import (
	"bytes"
	"testing"
)

// A data program that repeats the last data program's bytes holds that
// program's buffer instead of taking its own, across erases of other
// blocks: N programs of one page's bytes hold one payload buffer, counted
// once per cell.
func TestRepeatedProgramsHoldOneBuffer(t *testing.T) {
	c, _, _ := newTestChip(t)
	cfg := c.Config()
	data := pageData(cfg, 0x77)
	// The first copy stays valid throughout, so the buffer always has a
	// holder and never reaches the free list.
	if err := c.ProgramPage(c.PPNOf(1, 0), data); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 3; cycle++ {
		for pi := 0; pi < cfg.PagesPerBlock; pi++ {
			if err := c.ProgramPage(c.PPNOf(0, pi), data); err != nil {
				t.Fatal(err)
			}
			if err := c.Invalidate(c.PPNOf(0, pi)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.EraseBlock(0); err != nil {
			t.Fatal(err)
		}
	}
	for pi := 1; pi < cfg.PagesPerBlock; pi++ {
		if err := c.ProgramPage(c.PPNOf(1, pi), data); err != nil {
			t.Fatal(err)
		}
	}
	d := c.blocks[1].data[0]
	for pi, cell := range c.blocks[1].data {
		if cell != d {
			t.Fatalf("page %d holds its own buffer; %d programs of one page's bytes should hold one", pi, cfg.PagesPerBlock)
		}
	}
	if int(d.held) != cfg.PagesPerBlock {
		t.Errorf("the shared buffer counts %d holders, want %d", d.held, cfg.PagesPerBlock)
	}
}

// Only a buffer some cell still holds is shared. X's buffer goes to the
// free list when its one page is discarded; the next program of X takes a
// buffer (that one, off the top of the list) rather than holding a free
// one, so the program of Y after it cannot write into the second X.
func TestShareSkipsAReleasedBuffer(t *testing.T) {
	c, _, _ := newTestChip(t)
	cfg := c.Config()
	x, y := pageData(cfg, 0x58), pageData(cfg, 0x59)
	if err := c.ProgramPage(0, x); err != nil {
		t.Fatal(err)
	}
	if err := c.Discard(0); err != nil {
		t.Fatal(err)
	}
	if err := c.ProgramPage(1, x); err != nil {
		t.Fatal(err)
	}
	if err := c.ProgramPage(2, y); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cfg.PageSize)
	for p, want := range map[PPN][]byte{1: x, 2: y} {
		if err := c.ReadPage(p, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("ppn %d reads %x..., want %x...", p, buf[:4], want[:4])
		}
	}
}
