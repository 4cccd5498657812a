package pager

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/simfs"
)

// tableRig is a writer sharing a small table with readers held at
// snapshots of different ages.
type tableRig struct {
	t       *testing.T
	e       *env
	w       *Pager
	tbl     *Table
	readers []*Pager // each at its own snapshot
	page    []byte
}

const tableDBPages = 24

func newTableRig(t *testing.T, writerCache, frames int) *tableRig {
	e := newEnv(t, Off)
	w := openPager(t, e, Off, 100)
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	grow(t, w, tableDBPages-1)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	_ = w.Close()
	w = openPager(t, e, Off, writerCache)
	r := &tableRig{t: t, e: e, w: w, tbl: NewTable(e.fs, frames), page: make([]byte, e.fs.PageSize())}
	w.Share(r.tbl)
	t.Cleanup(func() {
		for _, rd := range r.readers {
			_ = rd.Close()
			_ = rd.snap.Close()
		}
		_ = w.Close()
	})
	return r
}

// reader opens a reader at the current sequence.
func (r *tableRig) reader() *Pager {
	snap, err := r.e.fs.OpenSnapshot()
	if err != nil {
		r.t.Fatal(err)
	}
	rd, err := OpenReader(r.e.fs, r.w.Name(), snap, r.tbl)
	if err != nil {
		r.t.Fatal(err)
	}
	r.readers = append(r.readers, rd)
	return rd
}

// write dirties pgno in the writer's open transaction with a fill that
// names the step.
func (r *tableRig) write(pgno Pgno, fill byte) {
	pg, err := r.w.Get(pgno)
	if err != nil {
		r.t.Fatal(err)
	}
	defer pg.Release()
	if err := r.w.Write(pg); err != nil {
		r.t.Fatal(err)
	}
	for i := 64; i < len(pg.data); i++ {
		pg.data[i] = fill
	}
}

// snapPage reads pgno as snap has it: zeros past the end.
func (r *tableRig) snapPage(snap *simfs.Snapshot, pgno Pgno) []byte {
	clear(r.page)
	if idx := int64(pgno - 1); idx < snap.Pages(r.w.Name()) {
		if err := snap.ReadPage(r.w.Name(), idx, r.page); err != nil {
			r.t.Fatal(err)
		}
	}
	return r.page
}

// oracle requires every resident frame valid at snap's sequence to hold
// what snap reads, and returns how many it checked.
func (r *tableRig) oracle(what string, snap *simfs.Snapshot) int {
	r.t.Helper()
	r.tbl.mu.Lock()
	defer r.tbl.mu.Unlock()
	n := 0
	for pgno, v := range r.tbl.pages {
		for f := v.head; f != nil; f = f.older {
			if f.from > snap.Seq() || snap.Seq() >= f.to {
				continue
			}
			n++
			if !bytes.Equal(f.data, r.snapPage(snap, pgno)) {
				r.t.Fatalf("%s: page %d's frame [%d, %d) differs from a snapshot read at %d", what, pgno, f.from, f.to, snap.Seq())
			}
		}
	}
	return n
}

// check holds the table to a fresh snapshot and to every reader's.
func (r *tableRig) check(what string) int {
	r.t.Helper()
	snap, err := r.e.fs.OpenSnapshot()
	if err != nil {
		r.t.Fatal(err)
	}
	defer snap.Close()
	n := r.oracle(what, snap)
	for i, rd := range r.readers {
		r.oracle(fmt.Sprintf("%s, reader %d", what, i), rd.snap)
	}
	return n
}

// readAll has rd read every page, checking each against its snapshot.
func (r *tableRig) readAll(what string, rd *Pager) {
	r.t.Helper()
	for pgno := Pgno(1); pgno <= rd.NPages(); pgno++ {
		pg, err := rd.Get(pgno)
		if err != nil {
			r.t.Fatal(err)
		}
		same := bytes.Equal(pg.data, r.snapPage(rd.snap, pgno))
		pg.Release()
		if !same {
			r.t.Fatalf("%s: reader at %d got page %d other than its snapshot holds", what, rd.snap.Seq(), pgno)
		}
	}
}

// After every ending of a write transaction — a single commit, a group of
// two deferred members, a steal, a rollback, a PrepareAtomic-style stage
// and prepare settled by commit or abort — every frame valid at the newest
// sequence equals a cold snapshot read of its page, and so does every
// frame valid at each older reader's sequence: a reader never gets a newer
// version than its snapshot's.
func TestTableFramesMatchSnapshots(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { tableStream(t, seed) })
	}
}

func tableStream(t *testing.T, seed int64) {
	r := newTableRig(t, 4, 12) // a 4-page writer cache: updates of 5 pages steal
	rng := rand.New(rand.NewSource(seed))
	r.reader()
	ended := map[string]int{}
	checked := 0
	for step := 0; step < 200; step++ {
		fill := byte(step)
		if err := r.w.Begin(); err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(3)
		how := []string{"commit", "group of two", "steal", "rollback", "prepare commit", "prepare abort"}[rng.Intn(6)]
		if how == "steal" {
			n = 5
		}
		for i := 0; i < n; i++ {
			r.write(Pgno(2+rng.Intn(tableDBPages-1)), fill)
		}
		var err error
		switch how {
		case "commit", "steal":
			err = r.w.Commit()
		case "group of two":
			var deferred bool
			if deferred, err = r.w.DeferCommit(); err == nil && !deferred {
				t.Fatalf("step %d: a %d-page transaction was not deferred", step, n)
			}
			r.check(fmt.Sprintf("step %d, a deferred member", step))
			if err == nil {
				err = r.w.Begin()
			}
			if err == nil {
				r.write(Pgno(2+rng.Intn(tableDBPages-1)), fill+1)
				err = r.w.Commit()
			}
		case "rollback":
			err = r.w.Rollback()
		default:
			if err = r.w.Stage(); err == nil {
				_, err = r.w.File().Prepare()
			}
			if err == nil {
				err = r.w.File().FinishPrepared(how == "prepare commit")
			}
			if err == nil && how == "prepare abort" {
				err = ErrAborted
			}
			if err = r.w.Settle(err); err == ErrAborted {
				err = nil
			}
		}
		if err != nil {
			t.Fatalf("step %d %s: %v", step, how, err)
		}
		ended[how]++
		checked += r.check(fmt.Sprintf("step %d, after a %s", step, how))

		// Readers read at their own sequences; now and then one moves on
		// to the newest, or a new one joins.
		for i, rd := range r.readers {
			if rng.Intn(2) == 0 {
				r.readAll(fmt.Sprintf("step %d reader %d", step, i), rd)
			}
		}
		switch k := rng.Intn(8); {
		case k == 0 && len(r.readers) < 4:
			r.readAll(fmt.Sprintf("step %d new reader", step), r.reader())
		case k == 1:
			rd := r.readers[rng.Intn(len(r.readers))]
			old := rd.snap
			snap, err := r.e.fs.OpenSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rd.Reseat(snap); err != nil {
				t.Fatal(err)
			}
			_ = old.Close()
			r.readAll(fmt.Sprintf("step %d re-seated reader", step), rd)
		}
	}
	t.Logf("endings %v; %d frames checked at the newest sequence; %d resident", ended, checked, r.tbl.Resident())
	if checked < 200 {
		t.Errorf("only %d frames were valid at the newest sequence: the writer's commits do not seed the table", checked)
	}
}

// A reader's insert that races a commit of its page: read from its
// snapshot before the commit, inserted after the commit marked the page
// pending or after it published the new version, the frame never covers
// the commit's sequence. A reader at the new sequence then reads the new
// version.
func TestTableReaderInsertRacesCommit(t *testing.T) {
	for _, at := range []string{"pending", "published"} {
		t.Run(at, func(t *testing.T) {
			r := newTableRig(t, 4, 12)
			const pgno = 5
			rd := r.reader()
			old := rd.snap.Seq()
			r.tbl.mu.Lock()
			pg := r.tbl.spare()
			r.tbl.mu.Unlock()
			if err := rd.read(pgno, pg.data); err != nil {
				t.Fatal(err)
			}
			if err := r.w.Begin(); err != nil {
				t.Fatal(err)
			}
			r.write(pgno, 0xEE)
			if _, err := r.w.DeferCommit(); err != nil {
				t.Fatal(err)
			}
			if at == "published" {
				if err := r.w.SyncDeferred(); err != nil {
					t.Fatal(err)
				}
			}
			r.tbl.mu.Lock()
			got := r.tbl.insert(pg, pgno, old, rd.snap.Epoch())
			r.tbl.mu.Unlock()
			if at == "pending" {
				if err := r.w.SyncDeferred(); err != nil {
					t.Fatal(err)
				}
			}
			seq := r.e.fs.Device().CommitSeq()
			if got.from > old || old >= got.to || got.to > seq {
				t.Fatalf("the racing insert got [%d, %d): want it to cover %d, not the commit's %d", got.from, got.to, old, seq)
			}
			got.Release()
			r.check("after the race")
			fresh := r.reader()
			pg, err := fresh.Get(pgno)
			if err != nil {
				t.Fatal(err)
			}
			defer pg.Release()
			if pg.data[100] != 0xEE {
				t.Fatalf("a reader at %d reads page %d as %#x, want the committed 0xEE", seq, pgno, pg.data[100])
			}
		})
	}
}
