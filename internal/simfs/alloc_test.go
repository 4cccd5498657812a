//go:build !race

package simfs

import (
	"runtime"
	"testing"
)

// allocsAndBytesPerRun reports the mean heap objects and bytes one call
// of f allocates.
func allocsAndBytesPerRun(runs int, f func()) (allocs, bytes float64) {
	f() // warm up
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(runs), float64(b.TotalAlloc-a.TotalAlloc) / float64(runs)
}

// Logging a commit's pages for ChangesSince costs the commit path
// nothing: an OffXFTL overwrite of five pages and its fsync allocate no
// object, as before the log existed — the log is two fixed rings. (Not
// under -race: the race runtime allocates.)
func TestLoggedCommitAllocs(t *testing.T) {
	fs, _ := newFS(t, OffXFTL)
	f, err := fs.Create("hot.db", RoleData)
	if err != nil {
		t.Fatal(err)
	}
	data := fsPage(fs, 2)
	round := func() {
		for idx := int64(0); idx < 5; idx++ {
			if err := f.WritePage(idx, data); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Fsync(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(300, round); allocs != 0 {
		t.Errorf("overwrite + fsync allocates %.1f objects, want 0", allocs)
	}
	seq := fs.Device().CommitSeq()
	if got, ok := fs.ChangesSince(nil, "hot.db", seq-1, seq); !ok || len(got) != 5 {
		t.Errorf("the measured commits were not logged: %v, %v", got, ok)
	}
}

// The commit point re-images only files whose page table changed, and
// the write-back cache recycles its pages: five overwrites and an fsync
// cost the same allocations whether the file system also holds a
// 64-page file or a 64k-page one — no term in file-system size — and
// the WritePage calls themselves allocate nothing. (Not under -race:
// the race runtime allocates.)
func TestFsyncAllocsIndependentOfFileSize(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			var writeAllocs uint64 // by WritePage alone, over every round
			measure := func(ballastPages int64) (allocs, bytes float64) {
				fs, _ := newFS(t, mode)
				ballast, err := fs.Create("ballast.dat", RoleOther)
				if err != nil {
					t.Fatal(err)
				}
				if err := ballast.WritePage(ballastPages-1, fsPage(fs, 1)); err != nil { // sparse
					t.Fatal(err)
				}
				if err := ballast.Fsync(); err != nil {
					t.Fatal(err)
				}
				f, err := fs.Create("hot.db", RoleData)
				if err != nil {
					t.Fatal(err)
				}
				data := fsPage(fs, 2)
				var m0, m1 runtime.MemStats
				round := func() {
					runtime.ReadMemStats(&m0)
					for idx := int64(0); idx < 5; idx++ {
						if err := f.WritePage(idx, data); err != nil {
							t.Fatal(err)
						}
					}
					runtime.ReadMemStats(&m1)
					writeAllocs += m1.Mallocs - m0.Mallocs
					if err := f.Fsync(); err != nil {
						t.Fatal(err)
					}
				}
				// Past the first few rounds every NAND block has been
				// programmed once and the chip is recycling buffers.
				for i := 0; i < 300; i++ {
					round()
				}
				writeAllocs = 0
				return allocsAndBytesPerRun(300, round)
			}
			smallAllocs, smallBytes := measure(64)
			bigAllocs, bigBytes := measure(64 << 10)
			t.Logf("64 pages: %.1f allocs %.0f B; 64k pages: %.1f allocs %.0f B", smallAllocs, smallBytes, bigAllocs, bigBytes)
			if bigAllocs > smallAllocs+1 || bigBytes > smallBytes+256 {
				t.Errorf("5 x WritePage + Fsync beside a 64k-page file allocates %.1f objects / %.0f B, beside a 64-page file %.1f / %.0f B: cost grows with file-system size",
					bigAllocs, bigBytes, smallAllocs, smallBytes)
			}
			// 1,500 calls; a handful of runtime-internal allocations may
			// land inside the bracketed windows.
			if writeAllocs > 15 {
				t.Errorf("WritePage into recycled cache pages allocated %d objects over 1,500 calls, want ~0", writeAllocs)
			}
		})
	}
}
