// Command xftlserver serves SQL over TCP on top of the X-FTL stack.
//
// Usage:
//
//	xftlserver [-addr HOST:PORT] [-metrics-addr HOST:PORT] [-channels N] [-shards N]
//
// xftlserver listens on -addr (default 127.0.0.1:7890) and speaks the
// line-delimited JSON protocol documented in internal/server: one
// request object per line (query/exec/begin/commit/rollback/ping/
// stats/slow), one response object per line. Every database runs X-FTL
// MVCC sessions: snapshot readers, served warm from a reader pool,
// beside one FIFO writer. -metrics-addr serves /metrics, /debug/slow and
// /debug/pprof/ on a second listener; -shards spreads databases over N
// independent stacks. SIGINT/SIGTERM triggers a graceful drain: the
// listener closes, in-flight transactions run to completion, then the
// stack shuts down.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7890", "listen address")
	metricsAddr := flag.String("metrics-addr", "", "serve observability HTTP on this address: /metrics, /debug/slow, /debug/pprof/ (empty disables)")
	channels := flag.Int("channels", 8, "flash array channel count")
	shards := flag.Int("shards", 1, "shard the tier across N independent X-FTL stacks, routing requests by database name")
	flag.Parse()

	os.Exit(serve(*addr, *metricsAddr, *channels, *shards))
}

func serve(addr, metricsAddr string, channels, shards int) int {
	srv, err := server.New(server.Options{Channels: channels, Shards: shards})
	if err != nil {
		fmt.Fprintf(os.Stderr, "xftlserver: %v\n", err)
		return 1
	}
	got, err := srv.Start(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xftlserver: %v\n", err)
		return 1
	}
	fmt.Printf("xftlserver: serving on %s (protocol: one JSON request per line; see internal/server)\n", got)
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
