// Harness-side corruption hooks. Unlike every other chip operation
// these mutate the cell array directly: no clock, no operation tick, no
// power check. They model damage that happened to the medium itself
// (radiation, retention loss past ECC, a destroyed page) and are applied
// by torture harnesses while the device is "powered off", between a
// power cut and the subsequent remount — a window in which the normal
// command interface rejects everything with ErrPowerLost.
package nand

import "fmt"

// CorruptPage flips n bytes of a programmed page's payload, spread
// deterministically across the page. The page stays readable and passes
// ECC (the flips model corruption beyond what ECC can even see, e.g. a
// firmware bug or a write to the wrong page), so only a content checksum
// in the layer above can catch it. No-op counts as success on pages
// without payload (free, torn). A page sharing its buffer — a blank page
// the zero page, a copy-back and its source one buffer — first gets a
// private copy, so the damage stays in this one page and an older copy a
// recovery scan may fall back to stays intact.
func (c *Chip) CorruptPage(p PPN, n int) error {
	bi, pi, err := c.split(p)
	if err != nil {
		return err
	}
	b := &c.blocks[bi]
	if b.data[pi] == nil || n <= 0 {
		return nil
	}
	if d := b.data[pi]; d == &c.zero || d.held > 1 {
		own := c.takeData()
		copy(own.b, d.b)
		c.releaseData(b, pi)
		b.data[pi] = own
	}
	page := b.data[pi].b
	step := len(page) / n
	if step == 0 {
		step = 1
	}
	for i := 0; i < n && i*step < len(page); i++ {
		page[i*step] ^= 0xA5
	}
	return nil
}

// CorruptOOB flips n bytes of a programmed page's spare area. A spare
// area that was never written (all-zero) is materialized first so the
// flips are visible to readers.
func (c *Chip) CorruptOOB(p PPN, n int) error {
	bi, pi, err := c.split(p)
	if err != nil {
		return err
	}
	b := &c.blocks[bi]
	if b.state[pi] == PageFree || b.torn[pi] || n <= 0 {
		return nil
	}
	if b.oob[pi] == nil {
		b.oob[pi] = c.takeOOB()
		clear(b.oob[pi])
	}
	step := len(b.oob[pi]) / n
	if step == 0 {
		step = 1
	}
	for i := 0; i < n && i*step < len(b.oob[pi]); i++ {
		b.oob[pi][i*step] ^= 0xA5
	}
	return nil
}

// DestroyPage makes a programmed page permanently unreadable: every
// subsequent read fails ECC, exactly like a torn page. It models a page
// whose charge has leaked past any retry's reach — "this copy of the
// metadata is gone", as opposed to CorruptPage's "this copy reads back
// wrong".
func (c *Chip) DestroyPage(p PPN) error {
	bi, pi, err := c.split(p)
	if err != nil {
		return err
	}
	b := &c.blocks[bi]
	if b.state[pi] == PageFree {
		return fmt.Errorf("nand: destroying free ppn %d", p)
	}
	b.torn[pi] = true
	c.releasePage(b, pi)
	return nil
}
