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
