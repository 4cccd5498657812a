package pager

import (
	"testing"
)

// viewFill reads one page through a captured WAL view and returns its
// fill byte.
func viewFill(t *testing.T, v *WALView, ps int, pgno Pgno) byte {
	t.Helper()
	buf := make([]byte, ps)
	if err := v.ReadPage(pgno, buf); err != nil {
		t.Fatalf("view read %d: %v", pgno, err)
	}
	return buf[64]
}

// Checkpoints defer while any view is live — a checkpoint would rewrite
// database pages the view still references — and run once released.
func TestWALViewDefersCheckpoint(t *testing.T) {
	e := newEnv(t, WAL)
	p := openPager(t, e, WAL, 100)
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	pgnos := grow(t, p, 2)
	for _, pgno := range pgnos {
		setPage(t, p, pgno, 0x11)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	v, err := p.CaptureWALView()
	if err != nil {
		t.Fatal(err)
	}
	before := p.Checkpoints
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if p.Checkpoints != before || p.CkptDeferred == 0 {
		t.Fatalf("checkpoint ran under a live view: ckpts %d→%d, deferred %d",
			before, p.Checkpoints, p.CkptDeferred)
	}
	// The automatic threshold defers too: pile up commits well past
	// CheckpointPages (50 in this fixture).
	for i := 0; i < 40; i++ {
		if err := p.Begin(); err != nil {
			t.Fatal(err)
		}
		setPage(t, p, pgnos[0], byte(i))
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if p.Checkpoints != before {
		t.Fatalf("automatic checkpoint ran under a live view")
	}
	if got := viewFill(t, v, p.PageSize(), pgnos[0]); got != 0x11 {
		t.Fatalf("view tore during deferred checkpointing: got %#x", got)
	}
	_ = v.Close()
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if p.Checkpoints != before+1 {
		t.Fatalf("checkpoint did not run after release: %d", p.Checkpoints)
	}
}
