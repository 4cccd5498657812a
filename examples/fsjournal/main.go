// fsjournal: the file-system story of the paper (§6.3.4) — a journaling
// file system on X-FTL can turn journaling off and keep full-journaling
// consistency at below ordered-journaling cost. This example writes the
// same random-update workload under the three configurations, compares
// IOPS, and then demonstrates the consistency half of the claim with a
// torn multi-page file update across a power cut.
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/simfs"
	"repro/internal/storage"
)

func main() {
	fmt.Println("random 8 KB writes, fsync every 5 pages, OpenSSD:")
	for _, mode := range []bench.FSMode{bench.FSOrdered, bench.FSFull, bench.FSXFTL} {
		pt, err := bench.RunFioPoint(storage.OpenSSD(), mode, 5, 1, bench.Options{Quick: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %6.0f IOPS\n", mode, pt.IOPS)
	}

	fmt.Println("\natomic multi-page file update across a power cut (X-FTL, journaling off):")
	dev, err := storage.New(storage.OpenSSD(), simclock.New(), storage.Options{Transactional: true})
	if err != nil {
		log.Fatal(err)
	}
	fsys, err := simfs.New(dev, simfs.OffXFTL, &metrics.HostCounters{})
	if err != nil {
		log.Fatal(err)
	}
	f, err := fsys.Create("state.bin", simfs.RoleOther)
	if err != nil {
		log.Fatal(err)
	}
	page := make([]byte, fsys.PageSize())
	for i := range page {
		page[i] = 'A'
	}
	for i := int64(0); i < 8; i++ {
		if err := f.WritePage(i, page); err != nil {
			log.Fatal(err)
		}
	}
	if err := f.Fsync(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  version A durable (8 pages)")

	// Overwrite all eight pages with version B, crash before fsync
	// completes its commit: with journaling off on an ordinary disk
	// this could tear; on X-FTL it is all-or-nothing.
	for i := range page {
		page[i] = 'B'
	}
	for i := int64(0); i < 8; i++ {
		if err := f.WritePage(i, page); err != nil {
			log.Fatal(err)
		}
	}
	fsys.PowerCut()
	fmt.Println("  -- power cut while version B was being written --")
	if err := fsys.Remount(); err != nil {
		log.Fatal(err)
	}
	g, err := fsys.Open("state.bin")
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, fsys.PageSize())
	versions := map[byte]int{}
	for i := int64(0); i < 8; i++ {
		if err := g.ReadPage(i, buf); err != nil {
			log.Fatal(err)
		}
		versions[buf[0]]++
	}
	fmt.Printf("  after recovery: %d pages of version A, %d of version B", versions['A'], versions['B'])
	if versions['A'] == 8 || versions['B'] == 8 {
		fmt.Println("  -> atomic, no torn state")
	} else {
		fmt.Println("  -> TORN (this should not happen)")
	}
}
