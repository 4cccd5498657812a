package nand

import (
	"bytes"
	"errors"
	"testing"
)

// A discarded page keeps its state and spare record but not its payload:
// host and copy-back reads fail typed, after being charged and counted
// like any read, and the recovery scan sees an invalid page with a zeroed
// payload.
func TestDiscardedPageReadsFailTyped(t *testing.T) {
	c, clk, stats := newTestChip(t)
	cfg := c.Config()
	oob := []byte{7, 8, 9}
	if err := c.ProgramPageOOB(2, pageData(cfg, 0x6B), oob); err != nil {
		t.Fatal(err)
	}
	if err := c.Discard(2); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.State(2); st != PageInvalid {
		t.Errorf("state = %v, want invalid", st)
	}
	buf, oobBuf := make([]byte, cfg.PageSize), make([]byte, OOBSize)
	before, reads := clk.Now(), stats.Snapshot().PageReads
	if err := c.ReadPage(2, buf); !errors.Is(err, ErrDiscarded) {
		t.Errorf("ReadPage = %v, want ErrDiscarded", err)
	}
	if err := c.ReadCopyBack(2); !errors.Is(err, ErrDiscarded) {
		t.Errorf("ReadCopyBack = %v, want ErrDiscarded", err)
	}
	if got := stats.Snapshot().PageReads - reads; got != 2 {
		t.Errorf("PageReads moved by %d, want 2", got)
	}
	if clk.Now() == before {
		t.Error("reads of a discarded page were not charged")
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	st, err := c.ScanRead(2, buf, oobBuf)
	if err != nil || st != PageInvalid {
		t.Fatalf("ScanRead = %v, %v; want invalid, nil", st, err)
	}
	if !bytes.Equal(buf, make([]byte, cfg.PageSize)) {
		t.Error("ScanRead of a discarded page did not zero the payload")
	}
	if want := append(append([]byte{}, oob...), make([]byte, OOBSize-len(oob))...); !bytes.Equal(oobBuf, want) {
		t.Errorf("ScanRead spare = %x, want %x", oobBuf, want)
	}
}

// Discard frees a page's payload buffer only when it has one of its own:
// a blank page's is the shared zero page, a torn page has none, and a
// free page cannot be discarded at all. A page that was only invalidated
// keeps its bytes for the scan.
func TestDiscardGivesBackOnlyOwnedPayloads(t *testing.T) {
	c, _, _ := newTestChip(t)
	cfg := c.Config()
	if err := c.Discard(5); err == nil {
		t.Error("discarding a free page succeeded")
	}
	if err := c.ProgramPage(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Discard(0); err != nil {
		t.Fatal(err)
	}
	for _, d := range c.freeData {
		if d == &c.zero {
			t.Fatal("discarding a blank page put the zero page on the free list")
		}
	}
	c.ArmPowerCut(1)
	if err := c.ProgramPage(1, pageData(cfg, 1)); !errors.Is(err, ErrPowerLost) {
		t.Fatalf("program = %v, want ErrPowerLost", err)
	}
	c.Restore()
	n := len(c.freeData)
	if err := c.Discard(1); err != nil {
		t.Fatal(err)
	}
	if len(c.freeData) != n {
		t.Errorf("discarding a torn page freed %d buffers, want 0", len(c.freeData)-n)
	}

	if err := c.ProgramPage(2, pageData(cfg, 0x2C)); err != nil {
		t.Fatal(err)
	}
	if err := c.Invalidate(2); err != nil {
		t.Fatal(err)
	}
	buf, oobBuf := make([]byte, cfg.PageSize), make([]byte, OOBSize)
	if st, err := c.ScanRead(2, buf, oobBuf); err != nil || st != PageInvalid || !bytes.Equal(buf, pageData(cfg, 0x2C)) {
		t.Errorf("ScanRead of an invalidated page = %v, %v, %x...; want invalid, nil, 2c...", st, err, buf[:4])
	}
}

// cell is FuzzCellLifecycle's model of one programmed page.
type cell struct {
	state     PageState
	discarded bool
	content   []byte
	spare     byte
}

// scanned is what a recovery scan of the page must return: its state and
// payload, zeros once discarded. A free page (nil cell) returns nothing.
func (m *cell) scanned(pageSize int) ([]byte, PageState) {
	switch {
	case m == nil:
		return nil, PageFree
	case m.discarded:
		return make([]byte, pageSize), m.state
	default:
		return m.content, m.state
	}
}

// FuzzCellLifecycle runs random programs (data, blank, or the last data
// program's bytes again, whole or with the final byte changed),
// copy-backs, invalidations, discards, erases, corruptions and reads over
// a four-block chip against a map model: a valid page, or an invalidated
// one not discarded, reads back exactly what was programmed (and
// corrupted) and its spare record; a discarded page fails typed. After
// every operation the buffers obey the ownership invariant: every cell
// holds its model's bytes, so cells that share a buffer hold equal bytes
// and damage to one never reaches another; every buffer's holder count is
// the number of cells holding it; and no buffer on the free list is held.
func FuzzCellLifecycle(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 0, 2, 0, 0, 6, 0, 0, 6, 0, 1, 4, 0, 0, 0, 1, 2})
	f.Add([]byte{1, 3, 0, 2, 3, 0, 0, 4, 9, 5, 4, 3, 6, 4, 2, 3, 0, 0, 0, 0, 7})
	f.Add([]byte{0, 8, 5, 1, 9, 0, 5, 9, 2, 2, 8, 0, 2, 9, 0, 4, 1, 0, 0, 8, 6, 6, 8, 0})
	f.Add([]byte{0, 0, 3, 7, 9, 0, 7, 17, 9, 5, 9, 2, 6, 17, 1, 3, 0, 0, 4, 0, 0, 6, 9, 0, 2, 17, 0, 4, 17, 0})
	f.Add([]byte{0, 0, 4, 8, 1, 0, 8, 9, 0, 5, 1, 1, 3, 0, 0, 8, 2, 0, 8, 10, 1, 0, 3, 5, 6, 2, 0, 6, 9, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		cfg := testConfig()
		cfg.Blocks, cfg.PagesPerBlock, cfg.PageSize = 4, 8, 128 // pages past the chip's 64-byte head copy
		c, err := New(cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		model := map[PPN]*cell{} // programmed pages; absent means free
		var last []byte          // the last data program's bytes
		cfg = c.Config()
		buf, oobBuf := make([]byte, cfg.PageSize), make([]byte, OOBSize)
		total := PPN(cfg.TotalPages())
		for i := 0; i+2 < len(ops); i += 3 {
			kind, p, arg := ops[i]%9, PPN(ops[i+1])%total, ops[i+2]
			m := model[p]
			switch kind {
			case 0, 1, 8: // program with data, blank, or the last data again
				var data []byte
				content := make([]byte, cfg.PageSize)
				switch {
				case kind == 0 || kind == 8 && last == nil:
					data = pageData(cfg, arg)
				case kind == 8:
					data = bytes.Clone(last)
					data[len(data)-1] ^= arg % 2 // odd: differs at the end only
				}
				copy(content, data)
				err := c.ProgramPageOOB(p, data, []byte{arg})
				if (m == nil) != (err == nil) {
					t.Fatalf("op %d: program ppn %d (programmed %v) = %v", i, p, m != nil, err)
				}
				if m == nil {
					model[p] = &cell{state: PageValid, content: content, spare: arg}
					if data != nil {
						last = data
					}
				}
			case 7: // copy-back program of p from src
				src := PPN(arg) % total
				sm := model[src]
				ok := m == nil && sm != nil && !sm.discarded
				err := c.ProgramCopyBack(p, src)
				if ok != (err == nil) {
					t.Fatalf("op %d: copy-back ppn %d from %d (dst programmed %v, src %+v) = %v", i, p, src, m != nil, sm, err)
				}
				if ok {
					model[p] = &cell{state: PageValid, content: bytes.Clone(sm.content), spare: sm.spare}
				}
			case 2, 3: // invalidate, or discard
				op := c.Invalidate
				if kind == 3 {
					op = c.Discard
				}
				if err := op(p); (m == nil) != (err != nil) {
					t.Fatalf("op %d: invalidate/discard ppn %d (programmed %v) = %v", i, p, m != nil, err)
				}
				if m != nil {
					m.state = PageInvalid
					m.discarded = m.discarded || kind == 3
				}
			case 4: // erase
				blk := c.BlockOf(p)
				valid := false
				for q := c.PPNOf(blk, 0); q < c.PPNOf(blk+1, 0); q++ {
					valid = valid || model[q] != nil && model[q].state == PageValid
				}
				err := c.EraseBlock(blk)
				if valid != errors.Is(err, ErrEraseValidPage) || !valid && err != nil {
					t.Fatalf("op %d: erase block %d (holds valid %v) = %v", i, blk, valid, err)
				}
				if !valid {
					for q := c.PPNOf(blk, 0); q < c.PPNOf(blk+1, 0); q++ {
						delete(model, q)
					}
				}
			case 5: // corrupt
				n := int(arg%4) + 1
				if err := c.CorruptPage(p, n); err != nil {
					t.Fatalf("op %d: corrupt ppn %d: %v", i, p, err)
				}
				if m != nil && !m.discarded {
					step := max(len(m.content)/n, 1)
					for j := 0; j < n && j*step < len(m.content); j++ {
						m.content[j*step] ^= 0xA5
					}
				}
			case 6: // read
				if arg%3 == 2 {
					st, err := c.ScanRead(p, buf, oobBuf)
					want, wantSt := m.scanned(cfg.PageSize)
					if err != nil || st != wantSt || want != nil && !bytes.Equal(buf, want) {
						t.Fatalf("op %d: scan of ppn %d = %v, %v, %x; want %v, %x", i, p, st, err, buf, wantSt, want)
					}
					if m != nil && oobBuf[0] != m.spare {
						t.Fatalf("op %d: scan of ppn %d reads spare %x, want %x", i, p, oobBuf[0], m.spare)
					}
					break
				}
				var err error
				if arg%3 == 0 {
					err = c.ReadPage(p, buf)
				} else {
					err = c.ReadCopyBack(p)
				}
				switch {
				case m == nil:
					if !errors.Is(err, ErrReadFree) {
						t.Fatalf("op %d: read of free ppn %d = %v", i, p, err)
					}
				case m.discarded:
					if !errors.Is(err, ErrDiscarded) {
						t.Fatalf("op %d: read of discarded ppn %d = %v, want ErrDiscarded", i, p, err)
					}
				case err != nil:
					t.Fatalf("op %d: read of ppn %d: %v", i, p, err)
				case arg%3 == 0 && !bytes.Equal(buf, m.content):
					t.Fatalf("op %d: ppn %d reads %x, want %x", i, p, buf, m.content)
				}
			}
			checkOwnership(t, c, model, i)
		}
		if !bytes.Equal(c.zero.b, make([]byte, cfg.PageSize)) {
			t.Fatal("the shared zero page was written")
		}
	})
}

// checkOwnership holds the chip's payload buffers to FuzzCellLifecycle's
// model after operation i.
func checkOwnership(t *testing.T, c *Chip, model map[PPN]*cell, i int) {
	t.Helper()
	cfg := c.Config()
	holders := map[*payload][]PPN{}
	for q := PPN(0); q < PPN(cfg.TotalPages()); q++ {
		d := c.blocks[c.BlockOf(q)].data[int(q)%cfg.PagesPerBlock]
		if d == nil {
			continue
		}
		m := model[q]
		if m == nil || m.discarded {
			t.Fatalf("op %d: ppn %d holds a payload, model %+v", i, q, m)
		}
		if !bytes.Equal(d.b, m.content) {
			t.Fatalf("op %d: ppn %d holds %x, want %x", i, q, d.b, m.content)
		}
		if d != &c.zero {
			holders[d] = append(holders[d], q)
		}
	}
	for d, hs := range holders {
		if int(d.held) != len(hs) {
			t.Fatalf("op %d: buffer held by ppns %v counts %d holders", i, hs, d.held)
		}
	}
	for _, d := range c.freeData {
		if d == &c.zero || holders[d] != nil {
			t.Fatalf("op %d: a buffer on the free list is held (zero page %v, by %v)", i, d == &c.zero, holders[d])
		}
	}
}
