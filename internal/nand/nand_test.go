package nand

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/trace"
)

func testConfig() Config {
	return Config{
		Blocks:        8,
		PagesPerBlock: 16,
		PageSize:      512,
		ReadLatency:   10 * time.Microsecond,
		ProgLatency:   100 * time.Microsecond,
		EraseLatency:  1000 * time.Microsecond,
	}
}

func newTestChip(t *testing.T) (*Chip, *simclock.Clock, *metrics.FlashCounters) {
	t.Helper()
	clk := simclock.New()
	stats := &metrics.FlashCounters{}
	c, err := New(testConfig(), clk, stats)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, clk, stats
}

func pageData(cfg Config, fill byte) []byte {
	d := make([]byte, cfg.PageSize)
	for i := range d {
		d[i] = fill
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"default", func(*Config) {}, true},
		{"zero blocks", func(c *Config) { c.Blocks = 0 }, false},
		{"negative pages", func(c *Config) { c.PagesPerBlock = -1 }, false},
		{"zero page size", func(c *Config) { c.PageSize = 0 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	c, _, _ := newTestChip(t)
	cfg := c.Config()
	data := pageData(cfg, 0xAB)
	if err := c.ProgramPage(0, data); err != nil {
		t.Fatalf("ProgramPage: %v", err)
	}
	buf := make([]byte, cfg.PageSize)
	if err := c.ReadPage(0, buf); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Error("read data does not match programmed data")
	}
}

func TestProgramTwiceFails(t *testing.T) {
	c, _, _ := newTestChip(t)
	data := pageData(c.Config(), 1)
	if err := c.ProgramPage(5, data); err != nil {
		t.Fatalf("first program: %v", err)
	}
	if err := c.ProgramPage(5, data); !errors.Is(err, ErrNotErased) {
		t.Errorf("second program error = %v, want ErrNotErased", err)
	}
}

func TestReadFreePageFails(t *testing.T) {
	c, _, _ := newTestChip(t)
	buf := make([]byte, c.Config().PageSize)
	if err := c.ReadPage(3, buf); !errors.Is(err, ErrReadFree) {
		t.Errorf("ReadPage on free page = %v, want ErrReadFree", err)
	}
}

func TestOutOfRangeAddresses(t *testing.T) {
	c, _, _ := newTestChip(t)
	buf := make([]byte, c.Config().PageSize)
	total := PPN(c.Config().TotalPages())
	if err := c.ReadPage(total, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read past end = %v, want ErrOutOfRange", err)
	}
	if err := c.ReadPage(-1, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read negative = %v, want ErrOutOfRange", err)
	}
	if err := c.ProgramPage(total, pageData(c.Config(), 0)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("program past end = %v, want ErrOutOfRange", err)
	}
	if err := c.EraseBlock(BlockNum(c.Config().Blocks)); !errors.Is(err, ErrBadBlock) {
		t.Errorf("erase past end = %v, want ErrBadBlock", err)
	}
}

func TestWrongDataSize(t *testing.T) {
	c, _, _ := newTestChip(t)
	if err := c.ProgramPage(0, make([]byte, 10)); !errors.Is(err, ErrWrongDataSize) {
		t.Errorf("short program = %v, want ErrWrongDataSize", err)
	}
	// Only nil is a blank program; an empty payload is a short one.
	if err := c.ProgramPage(0, []byte{}); !errors.Is(err, ErrWrongDataSize) {
		t.Errorf("empty program = %v, want ErrWrongDataSize", err)
	}
	if err := c.ReadPage(0, make([]byte, 10)); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("short read buffer = %v, want ErrShortBuffer", err)
	}
}

func TestEraseRequiresNoValidPages(t *testing.T) {
	c, _, _ := newTestChip(t)
	if err := c.ProgramPage(0, pageData(c.Config(), 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.EraseBlock(0); !errors.Is(err, ErrEraseValidPage) {
		t.Errorf("erase with valid page = %v, want ErrEraseValidPage", err)
	}
	if err := c.Invalidate(0); err != nil {
		t.Fatalf("Invalidate: %v", err)
	}
	if err := c.EraseBlock(0); err != nil {
		t.Errorf("erase after invalidate: %v", err)
	}
	// After erase the page can be programmed again.
	if err := c.ProgramPage(0, pageData(c.Config(), 2)); err != nil {
		t.Errorf("program after erase: %v", err)
	}
}

func TestInvalidateFreePageFails(t *testing.T) {
	c, _, _ := newTestChip(t)
	if err := c.Invalidate(0); err == nil {
		t.Error("Invalidate on free page succeeded, want error")
	}
}

func TestLatencyAccounting(t *testing.T) {
	c, clk, _ := newTestChip(t)
	cfg := c.Config()
	data := pageData(cfg, 7)
	buf := make([]byte, cfg.PageSize)

	if err := c.ProgramPage(0, data); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now(); got != cfg.ProgLatency {
		t.Errorf("after program clock = %v, want %v", got, cfg.ProgLatency)
	}
	if err := c.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now(); got != cfg.ProgLatency+cfg.ReadLatency {
		t.Errorf("after read clock = %v, want %v", got, cfg.ProgLatency+cfg.ReadLatency)
	}
	if err := c.Invalidate(0); err != nil {
		t.Fatal(err)
	}
	if err := c.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	want := cfg.ProgLatency + cfg.ReadLatency + cfg.EraseLatency
	if got := clk.Now(); got != want {
		t.Errorf("after erase clock = %v, want %v", got, want)
	}
}

func TestStatsCounting(t *testing.T) {
	c, _, stats := newTestChip(t)
	data := pageData(c.Config(), 9)
	buf := make([]byte, c.Config().PageSize)
	for i := 0; i < 3; i++ {
		if err := c.ProgramPage(PPN(i), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Invalidate(PPN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	s := stats.Snapshot()
	if s.PageWrites != 3 || s.PageReads != 1 || s.BlockErases != 1 {
		t.Errorf("stats = %v, want writes=3 reads=1 erases=1", s)
	}
}

func TestCountersMatchScan(t *testing.T) {
	c, _, _ := newTestChip(t)
	cfg := c.Config()
	// Program half the pages of block 2, invalidate a third of those.
	for i := 0; i < cfg.PagesPerBlock/2; i++ {
		if err := c.ProgramPage(c.PPNOf(2, i), pageData(cfg, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < cfg.PagesPerBlock/6; i++ {
		if err := c.Invalidate(c.PPNOf(2, i)); err != nil {
			t.Fatal(err)
		}
	}
	valid, _ := c.ValidPages(2)
	free, _ := c.FreePages(2)
	// Recompute by scanning states.
	var scanValid, scanFree int
	for i := 0; i < cfg.PagesPerBlock; i++ {
		st, _ := c.State(c.PPNOf(2, i))
		switch st {
		case PageValid:
			scanValid++
		case PageFree:
			scanFree++
		}
	}
	if valid != scanValid || free != scanFree {
		t.Errorf("counters valid=%d free=%d, scan valid=%d free=%d", valid, free, scanValid, scanFree)
	}
}

func TestWearCounting(t *testing.T) {
	c, _, _ := newTestChip(t)
	for i := 0; i < 5; i++ {
		if err := c.EraseBlock(3); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.blocks[3].eraseCount; n != 5 {
		t.Errorf("erase count = %d, want 5", n)
	}
	if c.WearSpread() != 5 {
		t.Errorf("WearSpread = %d, want 5", c.WearSpread())
	}
}

func TestPPNBlockMath(t *testing.T) {
	c, _, _ := newTestChip(t)
	cfg := c.Config()
	f := func(blk uint8, page uint8) bool {
		b := BlockNum(int(blk) % cfg.Blocks)
		p := int(page) % cfg.PagesPerBlock
		ppn := c.PPNOf(b, p)
		return c.BlockOf(ppn) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: content written to any free page reads back identically
// until its block is erased, regardless of activity elsewhere.
func TestPropertyDataIntegrity(t *testing.T) {
	c, _, _ := newTestChip(t)
	cfg := c.Config()
	f := func(fills []byte) bool {
		if len(fills) > cfg.PagesPerBlock {
			fills = fills[:cfg.PagesPerBlock]
		}
		// Fresh block each run not needed: block 7 programs in order, so
		// its next free page follows the programmed ones.
		written := map[int]byte{}
		for _, fill := range fills {
			free, err := c.FreePages(7)
			if err != nil || free == 0 {
				break
			}
			pi := cfg.PagesPerBlock - free
			if err := c.ProgramPage(c.PPNOf(7, pi), pageData(cfg, fill)); err != nil {
				return false
			}
			written[pi] = fill
		}
		buf := make([]byte, cfg.PageSize)
		for pi, fill := range written {
			if err := c.ReadPage(c.PPNOf(7, pi), buf); err != nil {
				return false
			}
			for _, b := range buf {
				if b != fill {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// A recycled spare buffer must not leak its previous owner's bytes: a
// program with a short (or no) spare record reads back zero-padded.
func TestRecycledSpareReadsBackZeroPadded(t *testing.T) {
	c, _, _ := newTestChip(t)
	cfg := c.Config()
	full := bytes.Repeat([]byte{0xFF}, OOBSize)
	if err := c.ProgramPageOOB(0, pageData(cfg, 1), full); err != nil {
		t.Fatal(err)
	}
	if err := c.Invalidate(0); err != nil {
		t.Fatal(err)
	}
	if err := c.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	buf, got := make([]byte, cfg.PageSize), make([]byte, OOBSize)
	for pi, oob := range [][]byte{{7, 8}, nil} {
		p := c.PPNOf(0, pi)
		if err := c.ProgramPageOOB(p, pageData(cfg, 2), oob); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ScanRead(p, buf, got); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, OOBSize)
		copy(want, oob)
		if !bytes.Equal(got, want) {
			t.Errorf("page %d spare = %x, want %x", pi, got, want)
		}
	}
}

// The chip's work starts as the host's; an episode sets its origin and
// restores the previous one on the way out, so nested episodes unwind
// to the outer one's origin and the last to host.
func TestOriginNestsAndUnwinds(t *testing.T) {
	c, _, _ := newTestChip(t)
	if c.Origin() != trace.OHost {
		t.Fatalf("fresh chip origin %v, want host", c.Origin())
	}
	outer := c.SetOrigin(trace.OCommit)
	inner := c.SetOrigin(trace.OGC)
	if c.Origin() != trace.OGC {
		t.Errorf("nested origin %v, want gc", c.Origin())
	}
	if prev := c.SetOrigin(inner); prev != trace.OGC || c.Origin() != trace.OCommit {
		t.Errorf("inner restore: returned %v, origin %v; want gc, commit", prev, c.Origin())
	}
	if c.SetOrigin(outer); c.Origin() != trace.OHost {
		t.Errorf("outer restore: origin %v, want host", c.Origin())
	}
	c.SetCommand(9, 7)
	if c.Session() != 9 || c.req != 7 {
		t.Errorf("command attribution sess %d req %d, want 9 7", c.Session(), c.req)
	}
}
