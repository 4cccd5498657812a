package simfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// deepImage is the reference the incremental commit point is checked
// against: a from-scratch deep copy of every live inode, which is what
// commitPoint used to compute on every fsync.
func deepImage(fs *FS) map[string]inodeImage {
	img := make(map[string]inodeImage, len(fs.files))
	for name, ino := range fs.files {
		img[name] = inodeImage{role: ino.role, pages: slices.Clone(ino.pages)}
	}
	return img
}

func sameImage(a, b inodeImage) bool { return a.role == b.role && slices.Equal(a.pages, b.pages) }

// checkIncremental asserts the invariant that makes re-imaging only
// touched files correct: a file that is not marked touched has a
// persisted image identical to its live inode (or neither exists).
func checkIncremental(t *testing.T, fs *FS, after string) {
	t.Helper()
	live := deepImage(fs)
	for name, img := range live {
		if _, marked := fs.touched[name]; marked {
			continue
		}
		if p, ok := fs.persisted[name]; !ok || !sameImage(p, img) {
			t.Fatalf("after %s: %q is unmarked but its persisted image (present=%v) differs from the live inode", after, name, ok)
		}
	}
	for name := range fs.persisted {
		if _, marked := fs.touched[name]; marked {
			continue
		}
		if _, ok := live[name]; !ok {
			t.Fatalf("after %s: %q is unmarked and persisted but no longer exists", after, name)
		}
	}
}

// snapCheck is one open snapshot with what it showed when it was opened.
type snapCheck struct {
	s       *Snapshot
	extents map[string]inodeImage // deep copy of its inode images at open
	content map[string][][]byte   // every page it could read at open
}

func openSnapCheck(t *testing.T, fs *FS) *snapCheck {
	t.Helper()
	s, err := fs.OpenSnapshot()
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	c := &snapCheck{s: s, extents: map[string]inodeImage{}, content: map[string][][]byte{}}
	for name, img := range s.inodes {
		c.extents[name] = inodeImage{role: img.role, pages: slices.Clone(img.pages)}
		for idx := range img.pages {
			buf := make([]byte, fs.PageSize())
			if err := s.ReadPage(name, int64(idx), buf); err != nil {
				t.Fatalf("snapshot read %s[%d] at open: %v", name, idx, err)
			}
			c.content[name] = append(c.content[name], buf)
		}
	}
	return c
}

// verify re-reads everything through the snapshot: later commits, which
// now share rather than copy inode images, must not have changed what it
// sees.
func (c *snapCheck) verify(t *testing.T, fs *FS, after string) {
	t.Helper()
	if len(c.s.inodes) != len(c.extents) {
		t.Fatalf("after %s: snapshot namespace changed size", after)
	}
	buf := make([]byte, fs.PageSize())
	for name, want := range c.extents {
		if got, ok := c.s.inodes[name]; !ok || !sameImage(got, want) {
			t.Fatalf("after %s: snapshot extents of %q changed under it", after, name)
		}
		for idx, wantPage := range c.content[name] {
			if err := c.s.ReadPage(name, int64(idx), buf); err != nil {
				t.Fatalf("after %s: snapshot read %s[%d]: %v", after, name, idx, err)
			}
			if !bytes.Equal(buf, wantPage) {
				t.Fatalf("after %s: snapshot page %s[%d] changed under it", after, name, idx)
			}
		}
	}
}

// TestPropertyIncrementalCommitPoint drives random grow / overwrite /
// truncate / abort / fsync / remove / two-phase prepare and resolve /
// power-cut and remount sequences against an X-FTL file system. After
// every step the touched-set invariant must hold; after every commit
// point the incrementally maintained persisted namespace must equal a
// freshly computed deep image; and every snapshot opened along the way
// must keep reading the extents and bytes it saw at open.
func TestPropertyIncrementalCommitPoint(t *testing.T) {
	names := []string{"a.db", "b.db", "c.db"}
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs, _ := newFS(t, OffXFTL)
			files := map[string]*File{}
			handle := func(name string) *File {
				t.Helper()
				if f, ok := files[name]; ok {
					return f
				}
				var f *File
				var err error
				if fs.Exists(name) {
					f, err = fs.Open(name)
				} else {
					f, err = fs.Create(name, RoleData)
				}
				if err != nil {
					t.Fatal(err)
				}
				files[name] = f
				return f
			}
			var snaps []*snapCheck
			remount := func(decide bool) {
				t.Helper()
				fs.PowerCut()
				if err := fs.Remount(); err != nil {
					t.Fatalf("Remount: %v", err)
				}
				for _, tid := range fs.InDoubt() {
					if err := fs.ResolveInDoubt(tid, decide); err != nil {
						t.Fatalf("ResolveInDoubt(%d, %v): %v", tid, decide, err)
					}
				}
				clear(files) // handles died with the old inodes
				snaps = nil  // and snapshots with the power
			}
			for step := 0; step < 400; step++ {
				name := names[rng.Intn(len(names))]
				op := ""
				switch k := rng.Intn(20); {
				case k < 8: // grow or overwrite
					f := handle(name)
					idx := rng.Int63n(f.Pages() + 3)
					op = fmt.Sprintf("write %s[%d]", name, idx)
					if err := f.WritePage(idx, fsPage(fs, byte(step))); err != nil {
						t.Fatalf("%s: %v", op, err)
					}
				case k < 12:
					op = "fsync " + name
					f := handle(name)
					committing := f.TxID() != 0 || len(f.dirty) > 0 || len(fs.dirtyMeta) > 0
					if err := f.Fsync(); err != nil {
						t.Fatalf("%s: %v", op, err)
					}
					if committing {
						if len(fs.touched) != 0 {
							t.Fatalf("after %s: commit point left %d files marked", op, len(fs.touched))
						}
						want := deepImage(fs)
						if len(fs.persisted) != len(want) {
							t.Fatalf("after %s: persisted has %d files, a fresh image %d", op, len(fs.persisted), len(want))
						}
						for n, img := range want {
							if !sameImage(fs.persisted[n], img) {
								t.Fatalf("after %s: persisted[%q] differs from a fresh deep image", op, n)
							}
						}
					}
				case k < 14:
					f := handle(name)
					n := rng.Int63n(f.Pages() + 2)
					op = fmt.Sprintf("truncate %s to %d", name, n)
					if err := f.Truncate(n); err != nil {
						t.Fatalf("%s: %v", op, err)
					}
				case k < 15:
					op = "abort " + name
					if err := handle(name).Abort(); err != nil {
						t.Fatalf("%s: %v", op, err)
					}
				case k < 16:
					if !fs.Exists(name) {
						continue
					}
					op = "remove " + name
					if err := handle(name).Fsync(); err != nil { // no open transaction may outlive the file
						t.Fatalf("%s: %v", op, err)
					}
					delete(files, name)
					if err := fs.Remove(name); err != nil {
						t.Fatalf("%s: %v", op, err)
					}
				case k < 18: // two-phase commit, optionally through a power cut
					f := handle(name)
					commit, cut := rng.Intn(2) == 0, rng.Intn(3) == 0
					op = fmt.Sprintf("prepare %s, cut=%v, commit=%v", name, cut, commit)
					tid, err := f.Prepare()
					if err != nil {
						t.Fatalf("%s: %v", op, err)
					}
					checkIncremental(t, fs, op+" (prepared)")
					switch {
					case cut:
						remount(commit)
					case tid != 0:
						if err := f.FinishPrepared(commit); err != nil {
							t.Fatalf("%s: %v", op, err)
						}
					}
				case k < 19:
					op = "power cut"
					remount(false)
				default:
					op = "open snapshot"
					if len(snaps) < 3 {
						snaps = append(snaps, openSnapCheck(t, fs))
					}
				}
				checkIncremental(t, fs, op)
				for _, c := range snaps {
					c.verify(t, fs, op)
				}
			}
			for _, c := range snaps {
				if err := c.s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
