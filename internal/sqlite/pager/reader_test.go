package pager

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/ncq"
	"repro/internal/trace"
)

// A read-only pager over a file-system snapshot reads the database as
// the snapshot pinned it, whatever the writer commits afterwards, and
// refuses every write. Its page reads are snapshot reads, attributed to
// the session and request the snapshot's I/O context names.
func TestReaderConformance(t *testing.T) {
	t.Run("snapshot", func(t *testing.T) {
		e := newEnv(t, Off)
		w := openPager(t, e, Off, 100)
		commit := func(fills map[Pgno]byte) {
			t.Helper()
			if err := w.Begin(); err != nil {
				t.Fatal(err)
			}
			for pgno, fill := range fills {
				setPage(t, w, pgno, fill)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Begin(); err != nil {
			t.Fatal(err)
		}
		pgnos := grow(t, w, 3)
		for _, pgno := range pgnos {
			setPage(t, w, pgno, 0xA1)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		commit(map[Pgno]byte{pgnos[0]: 0xB2})
		want := map[Pgno]byte{pgnos[0]: 0xB2, pgnos[1]: 0xA1, pgnos[2]: 0xA1}

		snap, err := e.fs.OpenSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		r, err := OpenReader(e.fs, w.Name(), snap, Config{Mode: Off, CacheSize: 100})
		if err != nil {
			t.Fatalf("OpenReader: %v", err)
		}
		defer r.Close()
		if r.NPages() != w.NPages() {
			t.Fatalf("reader sees %d pages, writer committed %d", r.NPages(), w.NPages())
		}

		// Writes fail, whichever way they are attempted.
		if err := r.Begin(); err != nil {
			t.Fatal(err)
		}
		pg, err := r.Get(pgnos[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Write(pg); !errors.Is(err, ErrReadOnly) {
			t.Errorf("Write: got %v, want ErrReadOnly", err)
		}
		pg.Release()
		if _, err := r.Allocate(); !errors.Is(err, ErrReadOnly) {
			t.Errorf("Allocate: got %v, want ErrReadOnly", err)
		}
		if err := r.Free(pgnos[2]); !errors.Is(err, ErrReadOnly) {
			t.Errorf("Free: got %v, want ErrReadOnly", err)
		}
		if err := r.Rollback(); err != nil {
			t.Errorf("Rollback of a read-only transaction: %v", err)
		}

		// The writer moves on; the reader must not — neither for the page
		// it already holds in cache nor for the ones it has yet to read.
		if got := getFill(t, r, pgnos[0]); got != want[pgnos[0]] {
			t.Fatalf("page %d at open: got %#x, want %#x", pgnos[0], got, want[pgnos[0]])
		}
		for i := 0; i < 4; i++ {
			commit(map[Pgno]byte{pgnos[0]: byte(0xC0 + i), pgnos[1]: byte(0xC0 + i), pgnos[2]: byte(0xC0 + i)})
		}
		for _, pgno := range pgnos {
			if got := getFill(t, r, pgno); got != want[pgno] {
				t.Errorf("page %d after later commits: got %#x, want %#x", pgno, got, want[pgno])
			}
		}
		if got := getFill(t, w, pgnos[0]); got != 0xC3 {
			t.Errorf("live pager: got %#x, want 0xC3", got)
		}

		// Pipelined and waited reads return the same bytes.
		waited, pipelined := make([]byte, r.PageSize()), make([]byte, r.PageSize())
		for idx := int64(0); idx < snap.Pages(w.Name()); idx++ {
			snap.SetIOContext(0, false)
			if err := snap.ReadPage(w.Name(), idx, waited); err != nil {
				t.Fatal(err)
			}
			snap.SetIOContext(0, true)
			if err := snap.ReadPage(w.Name(), idx, pipelined); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(waited, pipelined) {
				t.Errorf("page %d: pipelined read differs from waited read", idx+1)
			}
		}

		// A request id set on the snapshot arrives in the queued command and
		// in the file-system read event; a new owner does not inherit it.
		tr := trace.New()
		tr.Attach(e.fs.Device().Clock(), "snapshot")
		e.fs.SetTracer(tr)
		e.fs.Device().SetTracer(tr)
		snap.SetIOContext(7, false)
		snap.SetIOReq(4242)
		if err := snap.ReadPage(w.Name(), int64(pgnos[1]-1), waited); err != nil {
			t.Fatal(err)
		}
		snap.SetIOContext(8, false)
		if err := snap.ReadPage(w.Name(), int64(pgnos[2]-1), waited); err != nil {
			t.Fatal(err)
		}
		var cmds, reads []trace.Event
		for _, ev := range tr.Events() {
			switch ev.Kind {
			case trace.KCmd:
				cmds = append(cmds, ev)
			case trace.KFSRead:
				reads = append(reads, ev)
			}
		}
		if len(cmds) != 2 || len(reads) != 2 {
			t.Fatalf("two page reads produced %d queue commands and %d fs read events", len(cmds), len(reads))
		}
		for _, evs := range [][]trace.Event{cmds, reads} {
			if evs[0].Sess != 7 || evs[0].Req != 4242 {
				t.Errorf("%v under session 7 request 4242: event carries session %d request %d", evs[0].Kind, evs[0].Sess, evs[0].Req)
			}
			if evs[1].Sess != 8 || evs[1].Req != 0 {
				t.Errorf("%v under the next owner (session 8, no request): event carries session %d request %d", evs[1].Kind, evs[1].Sess, evs[1].Req)
			}
		}
		if ncq.Op(cmds[0].Op) != ncq.OpSnapRead {
			t.Errorf("page read issued %v, want %v", ncq.Op(cmds[0].Op), ncq.OpSnapRead)
		}
	})
}
