package simfs

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// committedFS is the test's own model of what a commit point made
// durable: every file's pages as fill bytes (0 for a hole). A model is
// never changed once published.
type committedFS map[string][]byte

func (m committedFS) clone() committedFS {
	c := make(committedFS, len(m))
	for name, pages := range m {
		c[name] = append([]byte(nil), pages...)
	}
	return c
}

// TestSnapshotsNeverReadLiveInodes: a snapshot reads only its own
// immutable inode images and the device versions pinned at its open, so
// it needs no lock against the writer's live page tables. Four readers
// each open a snapshot, read every page of every file in it and close it,
// over and over, while the writer creates, grows, truncates and removes
// three files with an fsync after every step. Each snapshot must read
// exactly what was committed at its open. Run with -race.
//
// Opening is ordered against whole steps, not reads: a truncate or remove
// trims its pages on the device before the fsync that commits the
// namespace change, so a snapshot opened in between would pair the old
// namespace with trimmed pages.
func TestSnapshotsNeverReadLiveInodes(t *testing.T) {
	fs, _ := newFS(t, OffXFTL)
	names := []string{"a.db", "b.db", "c.db"}
	const readers, steps, maxPages = 4, 240, 8

	// anchor never goes away: a removal commits by fsyncing it.
	anchor, err := fs.Create("anchor", RoleData)
	if err != nil {
		t.Fatal(err)
	}
	if err := anchor.Fsync(); err != nil {
		t.Fatal(err)
	}
	var (
		gate      sync.RWMutex // the writer holds it across a step and its fsync
		committed = committedFS{"anchor": {}}
		done      atomic.Bool
		wg        sync.WaitGroup
	)
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, fs.PageSize())
			for n := 0; !done.Load() || n == 0; n++ {
				gate.RLock()
				s, err := fs.OpenSnapshot()
				want := committed
				gate.RUnlock()
				if err != nil {
					errs <- fmt.Errorf("reader %d: open: %w", r, err)
					return
				}
				if err := readSnapshot(s, want, buf); err != nil {
					errs <- fmt.Errorf("reader %d, snapshot %d: %w", r, n, err)
					_ = s.Close()
					return
				}
				if err := s.Close(); err != nil {
					errs <- fmt.Errorf("reader %d: close: %w", r, err)
					return
				}
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(1))
	files := map[string]*File{}
	live := committed.clone()
	step := func(i int) error {
		name := names[rng.Intn(len(names))]
		f, ok := files[name]
		switch k := rng.Intn(10); {
		case !ok:
			if f, err = fs.Create(name, RoleData); err != nil {
				return err
			}
			files[name], live[name] = f, nil
			fallthrough
		case k < 5: // grow or overwrite, possibly leaving holes
			for n := 1 + rng.Intn(3); n > 0; n-- {
				idx := rng.Intn(min(len(live[name])+2, maxPages))
				fill := byte(i%250 + 1)
				if err := f.WritePage(int64(idx), fsPage(fs, fill)); err != nil {
					return err
				}
				for len(live[name]) <= idx {
					live[name] = append(live[name], 0)
				}
				live[name][idx] = fill
			}
		case k < 8: // shrink or zero-extend
			n := rng.Intn(min(len(live[name])+2, maxPages))
			if err := f.Truncate(int64(n)); err != nil {
				return err
			}
			for len(live[name]) < n {
				live[name] = append(live[name], 0)
			}
			live[name] = live[name][:n]
		default:
			delete(files, name)
			delete(live, name)
			if err := fs.Remove(name); err != nil {
				return err
			}
			f = anchor
		}
		return f.Fsync()
	}
	for i := 0; i < steps; i++ {
		gate.Lock()
		err := step(i)
		committed = live.clone()
		gate.Unlock()
		if err != nil {
			errs <- fmt.Errorf("writer step %d: %w", i, err)
			break
		}
		runtime.Gosched() // let a reader in on one processor too
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// readSnapshot reads every page of every file the snapshot holds and
// checks the namespace, each length and each byte against want. It
// yields after every page, so the writer moves on between a snapshot's
// reads even on one processor.
func readSnapshot(s *Snapshot, want committedFS, buf []byte) error {
	if len(s.inodes) != len(want) {
		return fmt.Errorf("%d files, committed %d", len(s.inodes), len(want))
	}
	for name, pages := range want {
		if got := s.Pages(name); got != int64(len(pages)) {
			_, present := s.inodes[name]
			return fmt.Errorf("%s: %d pages (present=%v), committed %d", name, got, present, len(pages))
		}
		for idx, fill := range pages {
			if err := s.ReadPage(name, int64(idx), buf); err != nil {
				return fmt.Errorf("%s[%d]: %w", name, idx, err)
			}
			for _, b := range buf {
				if b != fill {
					return fmt.Errorf("%s[%d] reads %#x, committed %#x", name, idx, b, fill)
				}
			}
			runtime.Gosched()
		}
	}
	return nil
}

// TestSnapshotKeepsItsNamespace: a snapshot shares the committed name
// table instead of copying it, so a commit point that creates, truncates
// or removes a file must write a copy of the table, never the one an
// open snapshot reads. Each snapshot here is opened before one such
// commit point and must read the namespace of its open after it; a
// commit that only overwrites pages leaves the table shared.
func TestSnapshotKeepsItsNamespace(t *testing.T) {
	fs, _ := newFS(t, OffXFTL)
	buf := make([]byte, fs.PageSize())
	a, err := fs.Create("a", RoleData)
	if err != nil {
		t.Fatal(err)
	}
	for idx, fill := range []byte{1, 2, 3} {
		if err := a.WritePage(int64(idx), fsPage(fs, fill)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Fsync(); err != nil {
		t.Fatal(err)
	}
	open := func() *Snapshot {
		t.Helper()
		s, err := fs.OpenSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	check := func(what string, s *Snapshot, want committedFS) {
		t.Helper()
		if err := readSnapshot(s, want, buf); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	table := func(s *Snapshot) uintptr { return reflect.ValueOf(s.inodes).Pointer() }

	beforeOverwrite := open()
	if err := a.WritePage(0, fsPage(fs, 9)); err != nil {
		t.Fatal(err)
	}
	if err := a.Fsync(); err != nil {
		t.Fatal(err)
	}
	beforeCreate := open()
	if table(beforeCreate) != table(beforeOverwrite) {
		t.Errorf("an overwrite-only commit copied the name table")
	}
	check("opened before the overwrite", beforeOverwrite, committedFS{"a": {1, 2, 3}})

	b, err := fs.Create("b", RoleData)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WritePage(0, fsPage(fs, 4)); err != nil {
		t.Fatal(err)
	}
	if err := b.Fsync(); err != nil {
		t.Fatal(err)
	}
	beforeTruncate := open()
	check("opened before the create", beforeCreate, committedFS{"a": {9, 2, 3}})

	if err := a.Truncate(1); err != nil {
		t.Fatal(err)
	}
	if err := a.Fsync(); err != nil {
		t.Fatal(err)
	}
	beforeRemove := open()
	check("opened before the truncate", beforeTruncate, committedFS{"a": {9, 2, 3}, "b": {4}})

	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := b.Fsync(); err != nil { // the removal commits with b's
		t.Fatal(err)
	}
	check("opened before the remove", beforeRemove, committedFS{"a": {9}, "b": {4}})
	check("opened after the remove", open(), committedFS{"b": {4}})
}
