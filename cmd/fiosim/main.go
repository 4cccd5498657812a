// Command fiosim runs the FIO-style random-write benchmark (§6.3.4) on
// a chosen device profile and file-system journaling mode, printing the
// sustained IOPS in simulated time.
//
// Usage:
//
//	fiosim [-profile openssd|s830] [-fsmode ordered|full|xftl] [-fsync N] [-threads T]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/storage"
)

func main() {
	profFlag := flag.String("profile", "openssd", "device profile: openssd or s830")
	modeFlag := flag.String("fsmode", "xftl", "file system mode: ordered, full or xftl")
	fsync := flag.Int("fsync", 5, "page writes per fsync")
	threads := flag.Int("threads", 1, "concurrent writer threads (throughput model)")
	flag.Parse()

	var prof storage.Profile
	switch strings.ToLower(*profFlag) {
	case "openssd":
		prof = storage.OpenSSD()
	case "s830":
		prof = storage.S830()
	default:
		fmt.Fprintf(os.Stderr, "fiosim: unknown profile %q\n", *profFlag)
		os.Exit(2)
	}
	var mode bench.FSMode
	switch strings.ToLower(*modeFlag) {
	case "ordered":
		mode = bench.FSOrdered
	case "full":
		mode = bench.FSFull
	case "xftl", "x-ftl", "off":
		mode = bench.FSXFTL
	default:
		fmt.Fprintf(os.Stderr, "fiosim: unknown fsmode %q\n", *modeFlag)
		os.Exit(2)
	}

	start := time.Now()
	pt, err := bench.RunFioPoint(prof, mode, *fsync, *threads, bench.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fiosim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("profile=%s fsmode=%s fsync-every=%d threads=%d\n",
		pt.Profile, pt.FSMode, pt.FsyncEvery, pt.Threads)
	fmt.Printf("IOPS (8 KB random writes, simulated): %.0f\n", pt.IOPS)
	fmt.Printf("wall time: %v\n", time.Since(start).Round(time.Millisecond))
}
