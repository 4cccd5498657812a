// Command xftlserver serves SQL over TCP on top of the X-FTL stack.
//
// Usage:
//
//	xftlserver [-addr HOST:PORT] [-mode xftl|rollback] [-channels N]
//
// xftlserver listens on -addr (default 127.0.0.1:7890) and speaks the
// line-delimited JSON protocol documented in internal/server: one
// request object per line (query/exec/begin/commit/rollback/ping/
// stats), one response object per line. SIGINT/SIGTERM triggers a
// graceful drain: the listener closes, in-flight transactions run to
// completion, then the stack shuts down.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/mvcc"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7890", "listen address")
	metricsAddr := flag.String("metrics-addr", "", "serve observability HTTP on this address: /metrics, /debug/slow, /debug/pprof/ (empty disables)")
	modeFlag := flag.String("mode", "xftl", "session model: xftl (MVCC snapshot readers) or rollback (serialized baseline)")
	channels := flag.Int("channels", 8, "flash array channel count")
	shards := flag.Int("shards", 1, "shard the tier across N independent X-FTL stacks, routing requests by database name")
	readPool := flag.Int("readpool", 0, "warm reader connections pooled per database (0 = default 8, negative disables; xftl mode only)")
	flag.Parse()

	var mode mvcc.Mode
	switch *modeFlag {
	case "xftl":
		mode = mvcc.MVCC
	case "rollback":
		mode = mvcc.Serialized
	default:
		fmt.Fprintf(os.Stderr, "xftlserver: unknown -mode %q (want xftl or rollback)\n", *modeFlag)
		os.Exit(2)
	}

	os.Exit(serve(*addr, *metricsAddr, mode, *channels, *shards, *readPool))
}

func serve(addr, metricsAddr string, mode mvcc.Mode, channels, shards, readPool int) int {
	srv, err := server.New(server.Options{Mode: mode, Channels: channels, Shards: shards, ReadPool: readPool})
	if err != nil {
		fmt.Fprintf(os.Stderr, "xftlserver: %v\n", err)
		return 1
	}
	got, err := srv.Start(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xftlserver: %v\n", err)
		return 1
	}
	fmt.Printf("xftlserver: serving %s on %s (protocol: one JSON request per line; see internal/server)\n",
		mode, got)
	var msrv *http.Server
	if metricsAddr != "" {
		msrv = &http.Server{Addr: metricsAddr, Handler: srv.MetricsMux()}
		mlis, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xftlserver: metrics: %v\n", err)
			_ = srv.Shutdown()
			return 1
		}
		fmt.Printf("xftlserver: metrics on http://%s/metrics (also /debug/slow, /debug/pprof/)\n", mlis.Addr())
		go func() {
			if err := msrv.Serve(mlis); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "xftlserver: metrics: %v\n", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("xftlserver: %v — draining\n", s)
	if msrv != nil {
		_ = msrv.Close()
	}
	if err := srv.Shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "xftlserver: shutdown: %v\n", err)
		return 1
	}
	fmt.Printf("xftlserver: drained cleanly (%d served)\n", srv.WireStats().Served)
	return 0
}
