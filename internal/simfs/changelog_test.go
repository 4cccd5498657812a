package simfs

import (
	"slices"
	"testing"

	"repro/internal/simclock"
	"repro/internal/storage"
)

// The change log names, per commit sequence, the file pages the commit
// wrote; ChangesSince is ok only when those pages are the whole
// difference between the two snapshots.
func TestChangesSince(t *testing.T) {
	prof := smallProfile()
	prof.Nand.Blocks = 256 // room for the big commits below
	dev, err := storage.New(prof, simclock.New(), storage.Options{Transactional: true})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(dev, OffXFTL, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq := func() uint64 { return fs.Device().CommitSeq() }
	write := func(f *File, fill byte, idxs ...int64) {
		t.Helper()
		for _, idx := range idxs {
			if err := f.WritePage(idx, fsPage(fs, fill)); err != nil {
				t.Fatal(err)
			}
		}
	}
	fsync := func(f *File) {
		t.Helper()
		if err := f.Fsync(); err != nil {
			t.Fatal(err)
		}
	}
	changes := func(name string, from, to uint64) ([]int64, bool) {
		got, ok := fs.ChangesSince(nil, name, from, to)
		slices.Sort(got)
		return slices.Compact(got), ok
	}
	expect := func(what, name string, from, to uint64, want []int64, wantOK bool) {
		t.Helper()
		got, ok := changes(name, from, to)
		if ok != wantOK || ok && !slices.Equal(got, want) {
			t.Errorf("%s: ChangesSince(%s, %d, %d) = %v, %v; want %v, %v", what, name, from, to, got, ok, want, wantOK)
		}
	}

	a, err := fs.Create("a.db", RoleData)
	if err != nil {
		t.Fatal(err)
	}
	empty := seq()
	write(a, 1, 0, 1, 2, 3)
	fsync(a)
	grown := seq()
	expect("a commit that grows the file", "a.db", empty, grown, nil, false)
	if fs.AdvanceFloor() != grown {
		t.Errorf("floor after a reshaping commit = %d, want its sequence %d", fs.AdvanceFloor(), grown)
	}

	write(a, 2, 3, 1)
	fsync(a)
	expect("an overwrite commit", "a.db", grown, seq(), []int64{1, 3}, true)
	expect("another file over the same commit", "b.db", grown, seq(), nil, true)
	expect("no commit at all", "a.db", seq(), seq(), nil, true)

	// Abort: pages stolen under the tid and pages still cached are both
	// discarded; the next commit lists only its own.
	before := seq()
	write(a, 3, 0)
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	write(a, 3, 2)
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	write(a, 4, 1)
	fsync(a)
	expect("a commit after an abort", "a.db", before, seq(), []int64{1}, true)

	// A group: two files commit under one tid with one commit(t), written
	// back partly at steal time. One sequence, both files' pages.
	b, err := fs.Create("b.db", RoleData)
	if err != nil {
		t.Fatal(err)
	}
	write(b, 5, 0, 1)
	fsync(b)
	before = seq()
	write(a, 6, 2)
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	b.AdoptTx(a.TxID())
	write(b, 6, 1)
	if err := b.FlushAll(); err != nil {
		t.Fatal(err)
	}
	write(a, 6, 0)
	fsync(a)
	b.AdoptTx(0)
	if seq() != before+1 {
		t.Fatalf("a group commit took sequences %d..%d, want one", before, seq())
	}
	expect("a group commit, lead", "a.db", before, seq(), []int64{0, 2}, true)
	expect("a group commit, follower", "b.db", before, seq(), []int64{1}, true)

	// A gap: a 2PC resolution moves the sequence without a record, and its
	// pending pages do not leak into the next commit's.
	before = seq()
	write(a, 7, 3)
	tid, err := a.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.FinishPrepared(true); err != nil || tid == 0 {
		t.Fatalf("resolve tid %d: %v", tid, err)
	}
	resolved := seq()
	write(a, 8, 0)
	fsync(a)
	expect("across a 2PC resolution", "a.db", before, seq(), nil, false)
	expect("after a 2PC resolution", "a.db", resolved, seq(), []int64{0}, true)

	// A trim moves the sequence too; the namespace change that follows
	// reshapes its commit.
	before = seq()
	if err := fs.Remove("b.db"); err != nil {
		t.Fatal(err)
	}
	expect("across a trim", "a.db", before, seq(), nil, false)
	trimmed := seq()
	write(a, 9, 1)
	fsync(a)
	expect("a commit that removes a file", "a.db", trimmed, seq(), nil, false)
	c, err := fs.Create("c.db", RoleData)
	if err != nil {
		t.Fatal(err)
	}
	before = seq()
	write(c, 1, 0)
	fsync(c)
	expect("a commit that creates a file", "a.db", before, seq(), nil, false)

	// The ring wraps: the oldest commits fall out and the floor follows.
	start := seq()
	for i := 0; i < changeLogSize+5; i++ {
		write(a, byte(i), int64(i%4))
		fsync(a)
	}
	end := seq()
	expect("across the whole run", "a.db", start, end, nil, false)
	expect("one commit past the ring", "a.db", end-changeLogSize-1, end, nil, false)
	expect("the ring's reach", "a.db", end-changeLogSize, end, []int64{0, 1, 2, 3}, true)
	expect("the newest commit", "a.db", end-1, end, []int64{int64((changeLogSize + 4) % 4)}, true)
	if fs.AdvanceFloor() != end-changeLogSize {
		t.Errorf("floor after the ring wrapped = %d, want %d", fs.AdvanceFloor(), end-changeLogSize)
	}

	// The page references have a ring of their own: big commits push the
	// oldest records out before the record ring is full.
	big, err := fs.Create("big.db", RoleData)
	if err != nil {
		t.Fatal(err)
	}
	const bigPages = 300
	all := make([]int64, bigPages)
	for i := range all {
		all[i] = int64(i)
	}
	write(big, 1, all...)
	fsync(big)
	var seqs []uint64
	for i := 0; i < 4; i++ { // with the growth, 1,500 references: the first two records go
		write(big, byte(i), all...)
		fsync(big)
		seqs = append(seqs, seq())
	}
	expect("past a record whose pages were written over", "big.db", seqs[0]-1, seqs[3], nil, false)
	expect("the records whose pages are intact", "big.db", seqs[0], seqs[3], all, true)
	if fs.AdvanceFloor() != seqs[0] {
		t.Errorf("floor after the page ring wrapped = %d, want %d", fs.AdvanceFloor(), seqs[0])
	}

	// A power cut forgets the log: a sequence number from before it names
	// no state the log can vouch for.
	fs.PowerCut()
	if err := fs.Remount(); err != nil {
		t.Fatal(err)
	}
	a, err = fs.Open("a.db")
	if err != nil {
		t.Fatal(err)
	}
	write(a, 1, 2)
	fsync(a)
	expect("across a power cut", "a.db", end, seq(), nil, false)
	expect("the first commit after a power cut", "a.db", seq()-1, seq(), nil, false)
	write(a, 1, 3)
	fsync(a)
	expect("the second commit after a power cut", "a.db", seq()-1, seq(), []int64{3}, true)
}
