package simfs

import "sync/atomic"

// The change log's capacity: the newest commits whose records, and whose
// page references, both still fit. A pooled reader whose snapshot is
// older than what the log holds cannot be advanced and is closed
// (readpool), which bounds the superseded versions idle readers pin to
// what these commits wrote.
const (
	changeLogSize  = 64   // commits
	changeLogPages = 1024 // page references, over all of them (X-L2P holds 500 rows by default)
)

// pageRef names one file page.
type pageRef struct {
	name string
	idx  int64
}

// txWrite is a file page written to the device under a transaction that
// has not committed yet.
type txWrite struct {
	tid uint64
	pageRef
}

// changeRecord is what one device commit changed: the file pages written
// under its tid, refs[first:end] counted in changeLog.written. partial
// marks a record that cannot be crossed: the commit changed a file's size
// or the namespace, or it is the first since the log was empty, so what
// the state before it was is not known.
type changeRecord struct {
	seq        uint64
	partial    bool
	first, end uint64
}

// changeLog remembers, per device commit sequence, which file pages the
// commit wrote: X-FTL keeps an old version only of the pages a commit
// rewrote, so a snapshot differs from an older one in exactly the pages
// committed in between. The log is written at the OffXFTL commit point
// and read by ChangesSince, both under FS.mu; pending, under FS.wmu, holds
// the writes of transactions still open. Records and page references are
// two fixed rings, so logging allocates nothing.
type changeLog struct {
	recs    [changeLogSize]changeRecord
	refs    [changeLogPages]pageRef
	n       int    // records held, the newest at recs[next-1]
	next    int    // slot of the next record
	written uint64 // page references ever logged; the next goes to refs[written%changeLogPages]
	pending []txWrite
	// floor is the oldest sequence the records reach back from the newest
	// one without a gap, a reshaping commit or a record lost to the rings
	// (AdvanceFloor). Written under FS.mu, read lock-free.
	floor atomic.Uint64
}

// noteTxWrite records a file page the device took under tid.
func (fs *FS) noteTxWrite(tid uint64, name string, idx int64) {
	fs.log.pending = append(fs.log.pending, txWrite{tid, pageRef{name, idx}})
}

// takeTxWrites removes tid's pending writes, logging their pages into the
// record being written when log is set.
func (fs *FS) takeTxWrites(tid uint64, log bool) {
	l := &fs.log
	kept := l.pending[:0]
	for _, w := range l.pending {
		switch {
		case w.tid != tid:
			kept = append(kept, w)
		case log:
			l.refs[l.written%changeLogPages] = w.pageRef
			l.written++
		}
	}
	l.pending = kept
}

// logCommit ends tid's pending writes at its commit point: when the
// device commit moved the sequence from before to before+1, they become
// that sequence's record. It runs before commitPoint, which it compares
// the live namespace with. Caller holds wmu and mu.
func (fs *FS) logCommit(tid, before uint64) {
	seq := fs.dev.CommitSeq()
	if seq != before+1 {
		fs.takeTxWrites(tid, false)
		return
	}
	l := &fs.log
	floor := l.floor.Load()
	if l.n == changeLogSize {
		floor = l.evictOldest(floor)
	}
	prev := &l.recs[(l.next+changeLogSize-1)%changeLogSize]
	r := &l.recs[l.next]
	*r = changeRecord{seq: seq, partial: l.n == 0 || fs.reshaped(), first: l.written}
	switch {
	case r.partial:
		floor = seq
	case prev.seq != seq-1:
		floor = max(floor, seq-1) // the sequences in between have no record
	}
	l.next = (l.next + 1) % changeLogSize
	l.n++
	fs.takeTxWrites(tid, true)
	r.end = l.written
	for l.n > 0 && l.recs[(l.next+changeLogSize-l.n)%changeLogSize].first+changeLogPages < l.written {
		floor = l.evictOldest(floor) // its page references were written over
	}
	l.floor.Store(floor)
}

// evictOldest drops the oldest record; its commit can no longer be
// crossed, so the floor moves up to it.
func (l *changeLog) evictOldest(floor uint64) uint64 {
	l.n--
	return max(floor, l.recs[(l.next+changeLogSize-1-l.n)%changeLogSize].seq)
}

// reshaped reports whether the commit point about to run changes more
// than page contents: a file appears, disappears or changes length.
func (fs *FS) reshaped() bool {
	for name := range fs.touched {
		ino, live := fs.files[name]
		img, was := fs.persisted[name]
		if live != was || live && len(ino.pages) != len(img.pages) {
			return true
		}
	}
	return false
}

// clearLog forgets every record and pending write at a power cut: no
// pre-cut snapshot is advanced, since the first record after it is
// partial. Caller holds wmu.
func (fs *FS) clearLog() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.log.n = 0
	fs.log.pending = fs.log.pending[:0]
}

// ChangesSince appends to dst the indexes of the pages of file name that
// the commits after sequence from, up to and including sequence to, wrote
// — possibly with repeats — and reports whether that list is the whole
// difference between a snapshot at from and one at to (same epoch): every
// sequence in between is a logged commit that changed no file's size and
// not the namespace, still in the log. It is not for a sequence without a
// record (a trim, a 2PC resolution), a reshaping commit, a sequence older
// than the log, or one from before a power cut.
func (fs *FS) ChangesSince(dst []int64, name string, from, to uint64) ([]int64, bool) {
	fs.mu.Lock()
	l := &fs.log
	want := to
	for i := 0; i < l.n && want > from; i++ {
		r := &l.recs[(l.next+changeLogSize-1-i)%changeLogSize]
		if r.seq > want {
			continue // committed after the newer snapshot opened
		}
		if r.seq != want || r.partial {
			break
		}
		for k := r.first; k < r.end; k++ {
			if p := &l.refs[k%changeLogPages]; p.name == name {
				dst = append(dst, p.idx)
			}
		}
		want--
	}
	fs.mu.Unlock()
	return dst, want == from
}

// AdvanceFloor reports the oldest commit sequence ChangesSince can still
// reach the newest logged commit from; a snapshot older than it can never
// be advanced. Lock-free.
func (fs *FS) AdvanceFloor() uint64 { return fs.log.floor.Load() }
