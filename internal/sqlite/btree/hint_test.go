package btree

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/simfs"
	"repro/internal/sqlite/pager"
	"repro/internal/storage"
	"repro/internal/trace"
)

// A point access that takes the hinted leaf skips only cache hits, so the
// hint is unobservable: one op script run on a long-lived Tree and again
// with a fresh Tree (no hint) per op must leave both runs equal to a map
// model, and must make the pagers miss on the same pages in the same
// order. The script splits the root, drops a second tree whose pages the
// first reuses, rolls back, advances a reader past commits, and runs on
// an 8-page writer cache sharing an 8-frame table with the reader, so
// pages are evicted all along.
func TestHintIsUnobservable(t *testing.T) {
	const steps = 4000
	hinted, hintedMisses := runTreeScript(t, rand.New(rand.NewSource(1)).Intn, steps, false)
	_, freshMisses := runTreeScript(t, rand.New(rand.NewSource(1)).Intn, steps, true)
	if hinted.ops == 0 || hinted.hinted*10 < hinted.ops {
		t.Fatalf("%d of %d point accesses took the hint: the script does not exercise it", hinted.hinted, hinted.ops)
	}
	if hinted.levels < 2 || hinted.drops == 0 || hinted.rollbacks == 0 || hinted.advances == 0 {
		t.Fatalf("script coverage: %+v", hinted)
	}
	if len(hintedMisses) == 0 || !slices.Equal(hintedMisses, freshMisses) {
		t.Fatalf("the hint changed the pager's misses: %d with it, %d without, first difference at %d",
			len(hintedMisses), len(freshMisses), firstDiff(hintedMisses, freshMisses))
	}
}

// FuzzTreeOps is the same script driven by bytes: lookups, inserts,
// appends, same- and different-size overwrites, deletes, commits,
// rollbacks, a dropped second tree and a reader advanced past commits.
// It never panics, both runs always equal the model, and they miss
// alike. One seed appends in key order, three levels deep.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{40, 7, 60, 3, 20, 80}, 60))
	f.Add(bytes.Repeat([]byte{55, 0, 1, 30, 9, 88, 96, 70, 12}, 80))
	f.Fuzz(func(t *testing.T, b []byte) {
		src := func(b []byte) func(int) int {
			return func(n int) int {
				if len(b) == 0 {
					return 0
				}
				v := int(b[0]) % n
				b = b[1:]
				return v
			}
		}
		steps := len(b) / 2
		_, hinted := runTreeScript(t, src(b), steps, false)
		_, fresh := runTreeScript(t, src(b), steps, true)
		if !slices.Equal(hinted, fresh) {
			t.Fatalf("the hint changed the pager's misses at %d", firstDiff(hinted, fresh))
		}
	})
}

func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// scriptStats says what a script run did.
type scriptStats struct {
	ops, hinted                int // writer point accesses, and those a hint served
	levels                     int // the table tree's height at the end
	drops, rollbacks, advances int
}

// runTreeScript runs steps ops chosen by next (a value in [0, n)) against
// a table tree on an X-FTL stack with 8-page caches — through one Tree,
// or with fresh set through a new Tree per op — checking every read
// against a map model. It returns the pager misses in order, as
// "session:page".
func runTreeScript(t testing.TB, next func(n int) int, steps int, fresh bool) (scriptStats, []string) {
	t.Helper()
	fsys, tr, w, tbl := hintStack(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.Begin())
	root, err := CreateTable(w)
	must(err)
	must(w.Commit())

	var st scriptStats
	long := OpenTable(w, root)
	tree := func() *Tree {
		if fresh {
			return OpenTable(w, root)
		}
		return long
	}
	committed, model := map[int64][]byte{}, map[int64][]byte{}
	var (
		reader  *pager.Pager
		snap    *simfs.Snapshot
		rlong   *Tree
		rmodel  map[int64][]byte
		prev    int64 // the last rowid a point access used
		version int
	)
	maxRowid := func() (hi int64) {
		for rowid := range model {
			hi = max(hi, rowid)
		}
		return hi
	}
	// pick chooses a rowid: beside the last one, or anywhere up to a few
	// past the largest — inside a leaf, outside it, past the last row.
	pick := func() int64 {
		if next(3) == 0 && prev > 2 {
			prev += int64(next(5)) - 2
		} else {
			prev = 1 + int64(next(int(maxRowid())+4))
		}
		return prev
	}
	payload := func(rowid int64) []byte {
		version++
		n := []int{12, 12, 12, 40, 90}[next(5)]
		return fmt.Appendf(nil, "%d/%d/%s", rowid, version, bytes.Repeat([]byte{'p'}, n))
	}
	check := func(tr *Tree, m map[int64][]byte, rowid int64, what string) {
		t.Helper()
		var got []byte
		ok, err := tr.View(rowid, func(p []byte) error { got = bytes.Clone(p); return nil })
		must(err)
		if want, exists := m[rowid]; ok != exists || !bytes.Equal(got, want) {
			t.Fatalf("%s: View(%d) = %q, %v; model has %q, %v", what, rowid, got, ok, want, exists)
		}
	}
	// point runs one writer point access, counting whether the hint serves it.
	point := func(rowid int64, op func(*Tree)) {
		st.ops++
		if long.hinted(rowid) {
			st.hinted++
		}
		op(tree())
	}
	openReader := func() {
		var err error
		snap, err = fsys.OpenSnapshot()
		must(err)
		reader, err = pager.OpenReader(fsys, "hint.db", snap, tbl)
		must(err)
		rlong, rmodel = OpenTable(reader, root), maps.Clone(committed)
	}

	for step := 0; step < steps; step++ {
		if !w.InTx() {
			must(w.Begin())
		}
		switch op := next(100); {
		case op < 25: // lookup
			rowid := pick()
			point(rowid, func(tr *Tree) { check(tr, model, rowid, "lookup") })
		case op < 40: // SELECT-then-UPDATE of one row
			rowid := pick()
			point(rowid, func(tr *Tree) { check(tr, model, rowid, "update") })
			if _, ok := model[rowid]; ok {
				p := payload(rowid)
				point(rowid, func(tr *Tree) { must(tr.Insert(rowid, p)) })
				model[rowid] = p
			}
		case op < 55: // insert or replace
			rowid, p := pick(), payload(prev)
			point(rowid, func(tr *Tree) { must(tr.Insert(rowid, p)) })
			model[rowid] = p
		case op < 65: // append
			rowid := maxRowid() + 1
			p := payload(rowid)
			point(rowid, func(tr *Tree) { must(tr.Insert(rowid, p)) })
			model[rowid], prev = p, rowid
		case op < 75: // delete
			rowid := pick()
			point(rowid, func(tr *Tree) {
				ok, err := tr.Delete(rowid)
				must(err)
				if _, exists := model[rowid]; ok != exists {
					t.Fatalf("Delete(%d) = %v, model has it: %v", rowid, ok, exists)
				}
			})
			delete(model, rowid)
		case op < 83:
			must(w.Commit())
			committed = maps.Clone(model)
		case op < 86:
			must(w.Rollback())
			model = maps.Clone(committed)
			st.rollbacks++
		case op < 88: // a second tree, dropped: the first reuses its pages
			r2, err := CreateTable(w)
			must(err)
			other := OpenTable(w, r2)
			for i := int64(1); i <= 40; i++ {
				must(other.Insert(i, payload(i)))
			}
			must(other.Drop())
			must(w.Free(r2))
			st.drops++
		case op < 96: // a reader's lookup
			if reader == nil {
				openReader()
			}
			rowid := pick()
			rtree := rlong
			if fresh {
				rtree = OpenTable(reader, root)
			}
			check(rtree, rmodel, rowid, "reader lookup")
		default: // the reader moves on to what the writer committed since
			if reader == nil {
				break
			}
			must(w.Commit())
			committed = maps.Clone(model)
			later, err := fsys.OpenSnapshot()
			must(err)
			_, err = reader.Reseat(later)
			must(err)
			must(snap.Close())
			snap, rmodel = later, maps.Clone(committed)
			st.advances++
		}
	}
	if w.InTx() {
		must(w.Commit())
		committed = maps.Clone(model)
	}
	for rowid := int64(1); rowid <= maxRowid()+1; rowid++ {
		check(OpenTable(w, root), committed, rowid, "final")
	}
	for pgno := root; pgno != 0; st.levels++ {
		pg, err := w.Get(pgno)
		must(err)
		pgno = 0
		if !isLeaf(pg.Data()) {
			pgno = pager.Pgno(getU32(pg.Data(), offRight))
		}
		pg.Release()
	}
	if reader != nil {
		must(reader.Close())
		must(snap.Close())
	}
	return st, pagerMisses(tr)
}

// hintStack is the scripts' stack: an X-FTL device, its file system
// traced, and a writer pager with an 8-page cache over hint.db, sharing
// the 8-frame table its readers read through.
func hintStack(t testing.TB) (*simfs.FS, *trace.Tracer, *pager.Pager, *pager.Table) {
	t.Helper()
	prof := storage.OpenSSD()
	prof.Nand.Blocks = 256
	prof.Nand.PagesPerBlock = 32
	prof.Nand.PageSize = 1024
	dev, err := storage.New(prof, simclock.New(), storage.Options{Transactional: true})
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := simfs.New(dev, simfs.OffXFTL, &metrics.HostCounters{})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	tr.Attach(dev.Clock(), "hint")
	fsys.SetTracer(tr)
	w, err := pager.Open(fsys, "hint.db", pager.Config{Mode: pager.Off, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	tbl := pager.NewTable(fsys, 8)
	w.Share(tbl)
	return fsys, tr, w, tbl
}

// pagerMisses returns the pager misses tr recorded, in order, as
// "session:page".
func pagerMisses(tr *trace.Tracer) []string {
	var misses []string
	for _, ev := range tr.Events() {
		if ev.Layer == trace.LPager && ev.Kind == trace.KPageRead {
			misses = append(misses, fmt.Sprintf("%d:%d", ev.Sess, ev.Addr))
		}
	}
	return misses
}

// TestHintIsUnobservableBetweenTrees interleaves point reads of one table
// with reads of a second table and of one row's overflow chain, all on
// an 8-page cache: pages that are unpinned between a table's last descent
// and its next, hinted, read. The hinted read must leave the frame list
// as the descent would, each page above the leaf unpinned in turn, or
// the table's root turns colder than the pages read between, and a
// later eviction tells the runs apart.
func TestHintIsUnobservableBetweenTrees(t *testing.T) {
	run := func(fresh bool) (hinted int, misses []string) {
		_, tr, w, _ := hintStack(t)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(w.Begin())
		roots := make([]pager.Pgno, 2)
		for i := range roots {
			root, err := CreateTable(w)
			must(err)
			roots[i] = root
			tree := OpenTable(w, root)
			for rowid := int64(1); rowid <= 60; rowid++ {
				must(tree.Insert(rowid, bytes.Repeat([]byte{byte(rowid)}, 90)))
			}
		}
		must(OpenTable(w, roots[1]).Insert(61, bytes.Repeat([]byte{'o'}, 2500)))
		must(w.Commit())

		long := OpenTable(w, roots[0])
		rng := rand.New(rand.NewSource(1))
		rowid := int64(1)
		for step := 0; step < 2000; step++ {
			table, key := 0, rowid
			switch k := rng.Intn(10); {
			case k < 3: // beside the last read of the first table
				rowid = min(max(rowid+int64(rng.Intn(5))-2, 1), 60)
				key = rowid
			case k < 4:
				rowid = 1 + rng.Int63n(60)
				key = rowid
			case k < 9:
				table, key = 1, 1+rng.Int63n(60)
			default: // the overflow row, three pages of chain
				table, key = 1, 61
			}
			tree := OpenTable(w, roots[table])
			if table == 0 && !fresh {
				tree = long
				if long.hinted(key) {
					hinted++
				}
			}
			ok, err := tree.View(key, func([]byte) error { return nil })
			if err != nil || !ok {
				t.Fatalf("step %d: View(%d) in table %d: ok %v err %v", step, key, table, ok, err)
			}
		}
		return hinted, pagerMisses(tr)
	}
	hinted, hintedMisses := run(false)
	_, freshMisses := run(true)
	if hinted < 200 {
		t.Fatalf("only %d reads took the hint", hinted)
	}
	if len(hintedMisses) == 0 || !slices.Equal(hintedMisses, freshMisses) {
		t.Fatalf("the hint changed the pager's misses: %d with it, %d without, first difference at %d",
			len(hintedMisses), len(freshMisses), firstDiff(hintedMisses, freshMisses))
	}
}
