package pager

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/ncq"
	"repro/internal/trace"
)

// readerKinds are the two ways a committed state is pinned for a
// read-only pager. Everything TestReaderConformance asserts, it asserts
// of both, through the one constructor.
var readerKinds = []struct {
	name string
	mode JournalMode // the writer's journal mode
	op   ncq.Op      // the device command the kind's page reads issue
	pin  func(t *testing.T, e *env, w *Pager) (PageSource, io.Closer)
}{
	{"snapshot", Off, ncq.OpSnapRead, func(t *testing.T, e *env, w *Pager) (PageSource, io.Closer) {
		snap, err := e.fs.OpenSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		return SnapshotSource(snap, w.Name()), snap
	}},
	{"walview", WAL, ncq.OpRead, func(t *testing.T, e *env, w *Pager) (PageSource, io.Closer) {
		v, err := w.CaptureWALView()
		if err != nil {
			t.Fatal(err)
		}
		return v, v
	}},
}

func TestReaderConformance(t *testing.T) {
	for _, k := range readerKinds {
		t.Run(k.name, func(t *testing.T) {
			e := newEnv(t, k.mode)
			w := openPager(t, e, k.mode, 100)
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
			// In WAL mode: checkpoint, so that pgnos[1]'s committed home is
			// the database file, then put pgnos[0]'s back in the log — a
			// view must resolve both. (A no-op in the other modes.)
			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			commit(map[Pgno]byte{pgnos[0]: 0xB2})
			want := map[Pgno]byte{pgnos[0]: 0xB2, pgnos[1]: 0xA1, pgnos[2]: 0xA1}

			src, pin := k.pin(t, e, w)
			defer pin.Close()
			r, err := OpenReader(e.fs, w.Name(), src, Config{Mode: k.mode, CacheSize: 100})
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

			// The writer moves on; the reader must not — neither for the
			// page it already holds in cache nor for the ones it has yet to
			// read from the source.
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
			rd := src.Reader()
			waited, pipelined := make([]byte, r.PageSize()), make([]byte, r.PageSize())
			for pgno := Pgno(1); pgno <= r.NPages(); pgno++ {
				rd.SetPipelined(false)
				if err := src.ReadPage(pgno, waited); err != nil {
					t.Fatal(err)
				}
				rd.SetPipelined(true)
				if err := src.ReadPage(pgno, pipelined); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(waited, pipelined) {
					t.Errorf("page %d: pipelined read differs from waited read", pgno)
				}
			}

			// A request id set on the reader arrives in the queued command
			// and in the file-system read event; a new owner does not
			// inherit it.
			tr := trace.New()
			tr.Attach(e.fs.Device().Clock(), k.name)
			e.fs.SetTracer(tr)
			e.fs.Device().SetTracer(tr)
			rd.SetIOContext(7, nil, nil)
			rd.SetIOReq(4242)
			if err := src.ReadPage(pgnos[1], waited); err != nil {
				t.Fatal(err)
			}
			rd.SetIOContext(8, nil, nil)
			if err := src.ReadPage(pgnos[2], waited); err != nil {
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
			if ncq.Op(cmds[0].Op) != k.op {
				t.Errorf("page read issued %v, want %v", ncq.Op(cmds[0].Op), k.op)
			}
		})
	}
}
