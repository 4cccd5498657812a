package nand

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/trace"
)

// Blank and data programs interleaved over several erase cycles of the
// same blocks: a blank page reads back zeros, a data page its own bytes,
// and no data cell shares a buffer with the zero page or another cell.
// Half the pages are discarded rather than invalidated, blank ones
// included, and the zero page never reaches the free list.
func TestBlankAndDataProgramsAcrossErases(t *testing.T) {
	c, _, _ := newTestChip(t)
	cfg := c.Config()
	buf := make([]byte, cfg.PageSize)
	zeros := make([]byte, cfg.PageSize)
	const blocks = 2
	for cycle := 0; cycle < 4; cycle++ {
		fills := map[PPN]byte{} // data pages and their fill; the rest are blank
		for blk := BlockNum(0); blk < blocks; blk++ {
			for pi := 0; pi < cfg.PagesPerBlock; pi++ {
				p := c.PPNOf(blk, pi)
				var data []byte
				// The pattern shifts each cycle, so every cell is both kinds.
				if (pi+cycle)%3 != 0 {
					fills[p] = byte(1 + cycle*64 + int(blk)*16 + pi)
					data = pageData(cfg, fills[p])
				}
				if err := c.ProgramPageOOB(p, data, []byte{byte(pi)}); err != nil {
					t.Fatalf("cycle %d program ppn %d: %v", cycle, p, err)
				}
			}
		}
		owner := map[*payload]PPN{}
		for blk := BlockNum(0); blk < blocks; blk++ {
			for pi := 0; pi < cfg.PagesPerBlock; pi++ {
				p := c.PPNOf(blk, pi)
				if err := c.ReadPage(p, buf); err != nil {
					t.Fatal(err)
				}
				fill, isData := fills[p]
				want := zeros
				if isData {
					want = pageData(cfg, fill)
					cell := c.blocks[blk].data[pi]
					if cell == &c.zero {
						t.Fatalf("cycle %d: data ppn %d aliases the zero page", cycle, p)
					}
					if q, ok := owner[cell]; ok {
						t.Fatalf("cycle %d: data ppns %d and %d share a buffer", cycle, q, p)
					}
					owner[cell] = p
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("cycle %d ppn %d (data %v) reads back %x..., want %x...", cycle, p, isData, buf[:4], want[:4])
				}
				retire := c.Invalidate
				if (pi+cycle)%2 == 0 {
					retire = c.Discard
				}
				if err := retire(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, d := range c.freeData {
			if d == &c.zero {
				t.Fatalf("cycle %d: the zero page is on the free list", cycle)
			}
		}
		for blk := BlockNum(0); blk < blocks; blk++ {
			if err := c.EraseBlock(blk); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !bytes.Equal(c.zero.b, zeros) {
		t.Error("the shared zero page was written")
	}
}

// CorruptPage on one blank page damages that page only: every other
// blank page, and one programmed after the damage, still reads zeros.
func TestCorruptBlankPageDamagesOnlyItself(t *testing.T) {
	c, _, _ := newTestChip(t)
	cfg := c.Config()
	for pi := 0; pi < 4; pi++ {
		if err := c.ProgramPage(c.PPNOf(0, pi), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CorruptPage(c.PPNOf(0, 1), 8); err != nil {
		t.Fatal(err)
	}
	if err := c.ProgramPage(c.PPNOf(0, 4), nil); err != nil {
		t.Fatal(err)
	}
	buf, zeros := make([]byte, cfg.PageSize), make([]byte, cfg.PageSize)
	for pi := 0; pi < 5; pi++ {
		if err := c.ReadPage(c.PPNOf(0, pi), buf); err != nil {
			t.Fatal(err)
		}
		if damaged := !bytes.Equal(buf, zeros); damaged != (pi == 1) {
			t.Errorf("page %d damaged = %v, want %v", pi, damaged, pi == 1)
		}
	}
}

// testCharger is a one-unit stand-in for the channel scheduler; transient
// faults are sampled only while a charger is attached.
type testCharger struct{ busy time.Duration }

func (t *testCharger) ChargeUnit(_ int, d time.Duration) (time.Duration, time.Duration) {
	t.busy += d
	return t.busy - d, t.busy
}

func (t *testCharger) ChargeAll(d time.Duration) (time.Duration, time.Duration) {
	return t.ChargeUnit(0, d)
}

// Under the fault model a blank program behaves exactly like a data
// program: charged, counted and traced when it succeeds, torn on a power
// cut, consumed and counted on a status fail, and retried in place after
// a transient fault.
func TestBlankProgramFaultsLikeData(t *testing.T) {
	payloads := []struct {
		name string
		fill func(Config) []byte
	}{
		{"blank", func(Config) []byte { return nil }},
		{"data", func(cfg Config) []byte { return pageData(cfg, 0x3C) }},
	}
	for _, pl := range payloads {
		t.Run(pl.name+"/ok", func(t *testing.T) {
			c, clk, stats := newTestChip(t)
			tr := trace.New()
			tr.Attach(clk, "test")
			c.SetTracer(tr)
			if err := c.ProgramPage(3, pl.fill(c.Config())); err != nil {
				t.Fatal(err)
			}
			if got := clk.Now(); got != c.Config().ProgLatency {
				t.Errorf("clock = %v, want %v", got, c.Config().ProgLatency)
			}
			if n := stats.Snapshot().PageWrites; n != 1 {
				t.Errorf("PageWrites = %d, want 1", n)
			}
			if evs := tr.Events(); len(evs) != 1 || evs[0].Kind != trace.KNandProg || evs[0].Addr != 3 || evs[0].Unit != 0 {
				t.Errorf("trace = %+v, want one program of ppn 3 on unit 0", evs)
			}
		})
		t.Run(pl.name+"/power cut", func(t *testing.T) {
			c, _, stats := newTestChip(t)
			c.ArmPowerCut(1)
			if err := c.ProgramPage(3, pl.fill(c.Config())); !errors.Is(err, ErrPowerLost) {
				t.Fatalf("program = %v, want ErrPowerLost", err)
			}
			c.Restore()
			if st, _ := c.State(3); st != PageValid {
				t.Errorf("state = %v, want valid (consumed)", st)
			}
			if err := c.ReadPage(3, make([]byte, c.Config().PageSize)); !errors.Is(err, ErrUncorrectable) {
				t.Errorf("read of torn page = %v, want ErrUncorrectable", err)
			}
			if n := stats.Snapshot().PageWrites; n != 0 {
				t.Errorf("PageWrites = %d, want 0", n)
			}
		})
		t.Run(pl.name+"/status fail", func(t *testing.T) {
			c, clk, stats := newTestChip(t)
			c.SetFaultModel(&FaultModel{Seed: 1, ProgramFailProb: 1})
			if err := c.ProgramPage(3, pl.fill(c.Config())); !errors.Is(err, ErrProgramFail) {
				t.Fatalf("program = %v, want ErrProgramFail", err)
			}
			if st, _ := c.State(3); st != PageInvalid {
				t.Errorf("state = %v, want invalid (consumed)", st)
			}
			if got := clk.Now(); got != c.Config().ProgLatency {
				t.Errorf("clock = %v, want %v", got, c.Config().ProgLatency)
			}
			s := stats.Snapshot()
			if s.ProgramFails != 1 || s.PageWrites != 0 {
				t.Errorf("ProgramFails = %d PageWrites = %d, want 1 and 0", s.ProgramFails, s.PageWrites)
			}
			c.SetFaultModel(nil)
			if err := c.ProgramPage(3, pl.fill(c.Config())); !errors.Is(err, ErrNotErased) {
				t.Errorf("reprogram = %v, want ErrNotErased", err)
			}
		})
		t.Run(pl.name+"/transient", func(t *testing.T) {
			c, _, stats := newTestChip(t)
			ch := &testCharger{}
			c.SetCharger(ch)
			c.SetFaultModel(&FaultModel{Seed: 1, TransientProb: 1})
			data := pl.fill(c.Config())
			if err := c.ProgramPage(3, data); !errors.Is(err, ErrTransient) {
				t.Fatalf("program = %v, want ErrTransient", err)
			}
			if st, _ := c.State(3); st != PageFree {
				t.Errorf("state = %v, want free (not consumed)", st)
			}
			if ch.busy != c.Config().ProgLatency {
				t.Errorf("charged %v, want %v", ch.busy, c.Config().ProgLatency)
			}
			c.SetFaultModel(nil)
			if err := c.ProgramPage(3, data); err != nil {
				t.Fatalf("retry in place: %v", err)
			}
			buf := make([]byte, c.Config().PageSize)
			if err := c.ReadPage(3, buf); err != nil {
				t.Fatal(err)
			}
			want := data
			if want == nil {
				want = make([]byte, c.Config().PageSize)
			}
			if !bytes.Equal(buf, want) {
				t.Error("retried page reads back wrong")
			}
			s := stats.Snapshot()
			if s.TransientFaults != 1 || s.PageWrites != 1 {
				t.Errorf("TransientFaults = %d PageWrites = %d, want 1 and 1", s.TransientFaults, s.PageWrites)
			}
		})
	}
}
