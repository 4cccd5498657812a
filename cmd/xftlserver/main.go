// Command xftlserver serves SQL over TCP on top of the X-FTL stack, or
// runs the serving tier's SLO load-test scenario against itself.
//
// Usage:
//
//	xftlserver [-addr HOST:PORT] [-mode xftl|rollback] [-channels N]
//	xftlserver -loadtest [-quick] [-quiet] [-seed N] [-json PATH]
//
// Serve mode listens on -addr (default 127.0.0.1:7890) and speaks the
// line-delimited JSON protocol documented in internal/server: one
// request object per line (query/exec/begin/commit/rollback/ping/
// stats), one response object per line. SIGINT/SIGTERM triggers a
// graceful drain: the listener closes, in-flight transactions run to
// completion, then the stack shuts down.
//
// -loadtest skips serving and runs the overload-acceptance scenario
// from internal/server/loadtest: calibrate the tier's sustainable rate,
// a healthy leg at half that rate, an overload leg at twice it with a
// flash unit force-quarantined mid-run, then a graceful drain with a
// goroutine-leak check. -json writes the full scenario report; the exit
// status is non-zero if any acceptance criterion failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/mvcc"
	"repro/internal/server"
	"repro/internal/server/loadtest"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7890", "listen address (serve mode)")
	metricsAddr := flag.String("metrics-addr", "", "serve observability HTTP on this address: /metrics, /debug/slow, /debug/pprof/ (empty disables)")
	modeFlag := flag.String("mode", "xftl", "session model: xftl (MVCC snapshot readers) or rollback (serialized baseline)")
	channels := flag.Int("channels", 8, "flash array channel count")
	shards := flag.Int("shards", 1, "shard the tier across N independent X-FTL stacks, routing requests by database name")
	readPool := flag.Int("readpool", 0, "warm reader connections pooled per database (0 = default 8, negative disables; xftl mode only)")
	loadtestMode := flag.Bool("loadtest", false, "run the SLO load-test scenario instead of serving")
	quick := flag.Bool("quick", false, "loadtest: reduced legs (CI smoke mode)")
	quiet := flag.Bool("quiet", false, "loadtest: suppress progress output")
	seed := flag.Int64("seed", 0, "loadtest: workload RNG seed (0 = default)")
	jsonPath := flag.String("json", "", "loadtest: write the scenario report as JSON to this path")
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

	if *loadtestMode {
		os.Exit(runLoadtest(mode, *quick, *quiet, *seed, *jsonPath, *metricsAddr))
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

// loadtestDoc is the machine-readable report written by -json: one
// trajectory point for the serving tier's SLO scenario.
type loadtestDoc struct {
	Tool        string             `json:"tool"`
	Quick       bool               `json:"quick"`
	Seed        int64              `json:"seed"`
	WallSeconds float64            `json:"wall_seconds"`
	Scenario    *loadtest.Scenario `json:"scenario"`
}

func runLoadtest(mode mvcc.Mode, quick, quiet bool, seed int64, jsonPath, metricsAddr string) int {
	cfg := loadtest.ScenarioConfig{Quick: quick, Seed: seed, Mode: mode, MetricsAddr: metricsAddr}
	if !quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "loadtest: "+format+"\n", args...)
		}
	}
	start := time.Now()
	sc, err := loadtest.RunScenario(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xftlserver: loadtest: %v\n", err)
		return 1
	}
	wall := time.Since(start).Seconds()

	if jsonPath != "" {
		doc := &loadtestDoc{Tool: "xftlserver-loadtest", Quick: quick, Seed: seed,
			WallSeconds: wall, Scenario: sc}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "xftlserver: write %s: %v\n", jsonPath, err)
			return 1
		}
	}

	h, d := sc.Healthy, sc.Degraded
	fmt.Printf("sustainable rate: %.0f qps (mean service %v)\n", sc.SustainableQPS, sc.MeanService)
	fmt.Printf("  %s\n  %s\n", h, d)
	fmt.Printf("quarantined at disturb: %d unit(s); leaked goroutines: %d; wall %.1fs\n",
		sc.QuarantinedUnits, sc.LeakedGoroutines, wall)
	if len(sc.Failures) > 0 {
		for _, f := range sc.Failures {
			fmt.Fprintf(os.Stderr, "FAIL: %s\n", f)
		}
		return 1
	}
	fmt.Println("all acceptance criteria met")
	return 0
}
