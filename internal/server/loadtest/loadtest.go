// Package loadtest drives open-loop traffic at the serving tier and
// grades the result against SLO thresholds. Open-loop means arrivals
// are scheduled by a target rate, not by completions — the generator
// does not slow down when the server does, which is what exposes
// overload behaviour: a tier without admission control grows an
// unbounded queue and every request times out collectively, while the
// server package's bounded queue turns excess arrivals into fast typed
// ErrOverload sheds and keeps served-request latency flat.
//
// Latency is measured wall-clock from each request's scheduled arrival
// (queueing delay included, the open-loop convention), against a
// served-request p99 SLO. RunScenario packages the acceptance run:
// calibrate the tier's sustainable rate closed-loop, run a healthy leg
// at half that rate, then an overload+degraded leg at twice it with a
// flash unit force-quarantined mid-run, and require bounded p99,
// explicit shedding, and a leak-free graceful drain.
package loadtest

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/mvcc"
	"repro/internal/server"
)

// SLO are the thresholds a leg is graded against.
type SLO struct {
	// P99 bounds served-request latency (wall clock, measured from
	// scheduled arrival).
	P99 time.Duration `json:"p99_ns"`
	// MaxFatalFrac bounds non-retryable failures as a fraction of
	// offered load.
	MaxFatalFrac float64 `json:"max_fatal_frac"`
}

// Config parameterizes one load-generation leg.
type Config struct {
	Addr string
	// QPS is the open-loop target arrival rate.
	QPS float64
	// Duration is the leg's length (wall clock).
	Duration time.Duration
	// Clients is the connection-pool size (defaults to 32).
	Clients int
	// WriteFrac is the fraction of arrivals that are single-row UPDATE
	// autocommits; the rest are point SELECTs.
	WriteFrac float64
	// Rows is the keyspace size (must match the seeded table).
	Rows int
	// Seed drives the key-choice and read/write-mix RNG.
	Seed int64
	// DeadlineMS is the per-request budget sent to the server (0: the
	// server's default).
	DeadlineMS int64
	// SLO grades the leg.
	SLO SLO
	// Label names the leg in the report.
	Label string
	// Disturb, when set, fires once when the leg reaches its midpoint —
	// degraded legs use it to force-quarantine a flash unit mid-run.
	Disturb func()
}

// Result is one leg's report.
type Result struct {
	Label     string  `json:"label"`
	TargetQPS float64 `json:"target_qps"`
	// Offered is how many arrivals were dispatched; ClientDrops counts
	// arrivals the client pool itself could not carry (generator
	// saturation — 0 in a healthy harness).
	Offered     int64 `json:"offered"`
	ClientDrops int64 `json:"client_drops,omitempty"`

	Served int64 `json:"served"`
	// Shed counts explicit load-shedding rejections: admission-queue
	// overload plus breaker-open degraded sheds.
	Shed          int64 `json:"shed"`
	OverloadSheds int64 `json:"overload_sheds"`
	DegradedSheds int64 `json:"degraded_sheds"`
	// DeadlineDrops are requests whose budget expired (queued too long);
	// Busy are writer-lock busy timeouts. Both retryable.
	DeadlineDrops  int64  `json:"deadline_drops"`
	Busy           int64  `json:"busy"`
	OtherRetryable int64  `json:"other_retryable,omitempty"`
	Fatal          int64  `json:"fatal"`
	FirstFatal     string `json:"first_fatal,omitempty"`

	Elapsed     time.Duration           `json:"elapsed_ns"`
	AchievedQPS float64                 `json:"achieved_qps"`
	ServedLat   metrics.LatencySnapshot `json:"served_latency"`

	SLO        SLO      `json:"slo"`
	SLOPass    bool     `json:"slo_pass"`
	Violations []string `json:"violations,omitempty"`
}

// Run drives one open-loop leg against a running server.
func Run(cfg Config) (*Result, error) {
	if cfg.QPS <= 0 || cfg.Duration <= 0 || cfg.Rows <= 0 {
		return nil, fmt.Errorf("loadtest: QPS, Duration and Rows must be positive")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 32
	}
	clients := make([]*server.Client, cfg.Clients)
	for i := range clients {
		c, err := server.Dial(cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("loadtest: dial client %d: %w", i, err)
		}
		clients[i] = c
		defer c.Close()
	}

	res := &Result{Label: cfg.Label, TargetQPS: cfg.QPS, SLO: cfg.SLO}
	var (
		served, overload, degraded, deadline, busy, retryable, fatal atomic.Int64
		clientDrops                                                  atomic.Int64
		firstFatal                                                   atomic.Value
		lat                                                          metrics.LatencyHist
		wg                                                           sync.WaitGroup
	)
	jobs := make(chan time.Time, 2*cfg.Clients)
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *server.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*104729))
			for sched := range jobs {
				var resp *server.Response
				var err error
				k := rng.Int63n(int64(cfg.Rows))
				if rng.Float64() < cfg.WriteFrac {
					resp, err = cl.Do(server.Request{Op: server.OpExec,
						SQL: "UPDATE kv SET v = v + 1 WHERE k = ?", Args: []any{k},
						DeadlineMS: cfg.DeadlineMS})
				} else {
					resp, err = cl.Do(server.Request{Op: server.OpQuery,
						SQL: "SELECT v FROM kv WHERE k = ?", Args: []any{k},
						DeadlineMS: cfg.DeadlineMS})
				}
				switch {
				case err != nil:
					fatal.Add(1)
					firstFatal.CompareAndSwap(nil, err.Error())
				case resp.OK:
					served.Add(1)
					lat.Observe(time.Since(sched))
				default:
					switch resp.Code {
					case "overload":
						overload.Add(1)
					case "degraded":
						degraded.Add(1)
					case "deadline":
						deadline.Add(1)
					case "busy":
						busy.Add(1)
					default:
						if resp.Retryable {
							retryable.Add(1)
						} else {
							fatal.Add(1)
							firstFatal.CompareAndSwap(nil, resp.Code+": "+resp.Error)
						}
					}
				}
			}
		}(i, cl)
	}

	// Open-loop dispatcher: arrivals on a fixed schedule, never gated on
	// completions. A full job buffer means the client pool itself is
	// saturated; those arrivals are dropped client-side and counted.
	interval := time.Duration(float64(time.Second) / cfg.QPS)
	start := time.Now()
	end := start.Add(cfg.Duration)
	disturbed := cfg.Disturb == nil
	for t := start; t.Before(end); t = t.Add(interval) {
		if d := time.Until(t); d > 0 {
			time.Sleep(d)
		}
		if !disturbed && time.Since(start) >= cfg.Duration/2 {
			disturbed = true
			cfg.Disturb()
		}
		select {
		case jobs <- t:
			res.Offered++
		default:
			clientDrops.Add(1)
		}
	}
	close(jobs)
	wg.Wait()
	res.Elapsed = time.Since(start)

	res.Served = served.Load()
	res.OverloadSheds = overload.Load()
	res.DegradedSheds = degraded.Load()
	res.Shed = res.OverloadSheds + res.DegradedSheds
	res.DeadlineDrops = deadline.Load()
	res.Busy = busy.Load()
	res.OtherRetryable = retryable.Load()
	res.Fatal = fatal.Load()
	res.ClientDrops = clientDrops.Load()
	if s, ok := firstFatal.Load().(string); ok {
		res.FirstFatal = s
	}
	if res.Elapsed > 0 {
		res.AchievedQPS = float64(res.Served) / res.Elapsed.Seconds()
	}
	res.ServedLat = lat.Snapshot()
	res.grade()
	return res, nil
}

// grade evaluates the SLO: served p99 within bound, fatal-failure
// fraction within bound, and the client pool never the bottleneck.
func (r *Result) grade() {
	if r.SLO.P99 > 0 && r.ServedLat.Count > 0 && r.ServedLat.P99 > r.SLO.P99 {
		r.Violations = append(r.Violations, fmt.Sprintf(
			"served p99 %v exceeds SLO %v", r.ServedLat.P99, r.SLO.P99))
	}
	if r.Served == 0 {
		r.Violations = append(r.Violations, "no requests served")
	}
	if r.Offered > 0 {
		frac := float64(r.Fatal) / float64(r.Offered)
		if frac > r.SLO.MaxFatalFrac {
			r.Violations = append(r.Violations, fmt.Sprintf(
				"fatal failures %.3f of offered exceed bound %.3f (first: %s)",
				frac, r.SLO.MaxFatalFrac, r.FirstFatal))
		}
	}
	r.SLOPass = len(r.Violations) == 0
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s: offered %d @ %.0f qps -> served %d (%.0f qps, p50=%v p99=%v) shed %d (overload %d, degraded %d) deadline %d busy %d fatal %d slo_pass=%v",
		r.Label, r.Offered, r.TargetQPS, r.Served, r.AchievedQPS,
		r.ServedLat.P50, r.ServedLat.P99, r.Shed, r.OverloadSheds,
		r.DegradedSheds, r.DeadlineDrops, r.Busy, r.Fatal, r.SLOPass)
}

// SeedRows creates and fills kv(k, v) with rows keys in one write
// transaction through the wire protocol.
func SeedRows(addr string, rows int) error {
	cl, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	if resp, err := cl.Do(server.Request{Op: server.OpBegin, DeadlineMS: 10_000}); err != nil || !resp.OK {
		return seedErr("begin", resp, err)
	}
	if resp, err := cl.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"); err != nil || !resp.OK {
		return seedErr("create", resp, err)
	}
	for k := 0; k < rows; k++ {
		if resp, err := cl.Exec("INSERT INTO kv (k, v) VALUES (?, 0)", int64(k)); err != nil || !resp.OK {
			return seedErr("insert", resp, err)
		}
	}
	if resp, err := cl.Commit(); err != nil || !resp.OK {
		return seedErr("commit", resp, err)
	}
	return nil
}

func seedErr(step string, resp *server.Response, err error) error {
	if err != nil {
		return fmt.Errorf("loadtest: seed %s: %w", step, err)
	}
	return fmt.Errorf("loadtest: seed %s: %s (%s)", step, resp.Error, resp.Code)
}

// Calibrate measures the tier's sustainable service rate closed-loop:
// clients workers issue total requests back to back; the completion
// rate approximates capacity (requests/sec) for the given mix.
func Calibrate(addr string, clients, total, rows int, writeFrac float64, seed int64) (qps float64, meanService time.Duration, err error) {
	pool := make([]*server.Client, clients)
	for i := range pool {
		c, derr := server.Dial(addr)
		if derr != nil {
			return 0, 0, derr
		}
		pool[i] = c
		defer c.Close()
	}
	per := total / clients
	if per < 1 {
		per = 1
	}
	var wg sync.WaitGroup
	var done atomic.Int64
	var failed atomic.Int64
	start := time.Now()
	for i, cl := range pool {
		wg.Add(1)
		go func(i int, cl *server.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(i)*7919))
			for n := 0; n < per; n++ {
				k := rng.Int63n(int64(rows))
				var resp *server.Response
				var rerr error
				if rng.Float64() < writeFrac {
					resp, rerr = cl.Exec("UPDATE kv SET v = v + 1 WHERE k = ?", k)
				} else {
					resp, rerr = cl.Query("SELECT v FROM kv WHERE k = ?", k)
				}
				if rerr == nil && resp.OK {
					done.Add(1)
				} else {
					failed.Add(1)
				}
			}
		}(i, cl)
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := done.Load()
	if n == 0 {
		return 0, 0, fmt.Errorf("loadtest: calibration served nothing (%d failures)", failed.Load())
	}
	qps = float64(n) / elapsed.Seconds()
	meanService = time.Duration(int64(elapsed) * int64(clients) / n)
	return qps, meanService, nil
}

// ScenarioConfig parameterizes the acceptance scenario.
type ScenarioConfig struct {
	// Quick shrinks calibration and leg lengths for CI smoke runs.
	Quick bool
	// Seed drives every RNG in the scenario.
	Seed int64
	// Mode selects the session model (default mvcc.MVCC).
	Mode mvcc.Mode
	// MetricsAddr, when non-empty, serves the tier's observability HTTP
	// (/metrics, /debug/slow, /debug/pprof/) on this address for the
	// scenario's duration — so a scraper or profiler can watch the
	// legs live. The listener closes before the goroutine-leak check.
	MetricsAddr string
	// Progress, when set, receives leg-by-leg narration.
	Progress func(format string, args ...any)
}

// Scenario is the acceptance run's full report: calibration, a healthy
// leg at half the sustainable rate, an overload+degraded leg at twice
// it with a unit force-quarantined mid-run, and the drain check.
type Scenario struct {
	Mode           string        `json:"mode"`
	SustainableQPS float64       `json:"sustainable_qps"`
	MeanService    time.Duration `json:"mean_service_ns"`
	Healthy        *Result       `json:"healthy"`
	Degraded       *Result       `json:"degraded"`
	// QuarantinedUnits is the quarantine pressure sampled right after
	// the mid-run disturbance; the firmware typically probes the
	// (physically healthy) unit back into service before the leg ends.
	QuarantinedUnits int `json:"quarantined_units"`
	LeakedGoroutines int `json:"leaked_goroutines"`
	// Failures lists acceptance violations; empty means the scenario
	// passed.
	Failures []string `json:"failures,omitempty"`
}

func (c ScenarioConfig) progress(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(format, args...)
	}
}

// RunScenario builds an in-process server, runs the healthy and the
// overload+degraded legs, drains, and checks for leaked goroutines.
// The returned error covers harness failures only; acceptance
// violations land in Scenario.Failures.
func RunScenario(cfg ScenarioConfig) (*Scenario, error) {
	rows, calibration := 512, 1200
	legDur := 8 * time.Second
	if cfg.Quick {
		rows, calibration = 128, 240
		legDur = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	const (
		maxConcurrent = 8
		writeFrac     = 0.25
		// serviceFloor restores a wall-clock service time per admitted
		// request: the device below is virtual-time (near-zero wall
		// cost), and without a floor a small host saturates its CPU
		// before the admission gate ever sees concurrent requests.
		serviceFloor = 2 * time.Millisecond
	)
	baseline := runtime.NumGoroutine()

	srv, err := server.New(server.Options{
		Mode:          cfg.Mode,
		MaxConcurrent: maxConcurrent,
		MaxQueue:      2 * maxConcurrent,
		ServiceFloor:  serviceFloor,
	})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var msrv *http.Server
	stopMetrics := func() {
		if msrv != nil {
			_ = msrv.Close()
			msrv = nil
		}
	}
	defer stopMetrics()
	if cfg.MetricsAddr != "" {
		mlis, err := net.Listen("tcp", cfg.MetricsAddr)
		if err != nil {
			_ = srv.Shutdown()
			return nil, fmt.Errorf("loadtest: metrics: %w", err)
		}
		msrv = &http.Server{Handler: srv.MetricsMux()}
		cfg.progress("metrics on http://%s/metrics", mlis.Addr())
		go func(h *http.Server) { _ = h.Serve(mlis) }(msrv)
	}

	sc := &Scenario{Mode: cfg.Mode.String()}
	cfg.progress("seeding %d rows", rows)
	if err := SeedRows(addr.String(), rows); err != nil {
		_ = srv.Shutdown()
		return nil, err
	}

	cfg.progress("calibrating sustainable rate (%d closed-loop requests)", calibration)
	qps, mean, err := Calibrate(addr.String(), maxConcurrent, calibration, rows, writeFrac, cfg.Seed)
	if err != nil {
		_ = srv.Shutdown()
		return nil, err
	}
	sc.SustainableQPS, sc.MeanService = qps, mean

	// The p99 bound scales with the calibrated service time so the same
	// scenario grades honestly on fast metal and under the race
	// detector: a served request can wait for at most MaxQueue slots
	// ahead of it, so ~25 mean service times is generous headroom for
	// the degraded leg's retries without ever tolerating collapse.
	sloP99 := 25 * mean
	if sloP99 < 250*time.Millisecond {
		sloP99 = 250 * time.Millisecond
	}
	slo := SLO{P99: sloP99, MaxFatalFrac: 0}
	deadlineMS := int64(2 * sloP99 / time.Millisecond)

	leg := Config{
		Addr:       addr.String(),
		Duration:   legDur,
		Clients:    4 * maxConcurrent,
		WriteFrac:  writeFrac,
		Rows:       rows,
		Seed:       cfg.Seed,
		DeadlineMS: deadlineMS,
		SLO:        slo,
	}

	healthy := leg
	healthy.Label = "healthy 0.5x"
	healthy.QPS = qps / 2
	cfg.progress("healthy leg: %.0f qps for %v (slo p99 %v)", healthy.QPS, legDur, sloP99)
	sc.Healthy, err = Run(healthy)
	if err != nil {
		_ = srv.Shutdown()
		return nil, err
	}
	cfg.progress("%s", sc.Healthy)

	degraded := leg
	degraded.Label = "degraded 2x"
	degraded.QPS = 2 * qps
	degraded.Disturb = func() {
		// Mid-run quarantine: live pages drain off the unit and the
		// write frontier steers away while traffic keeps flowing.
		// Pressure is sampled here, at disturb time: the unit is
		// physically healthy, so the firmware's probe path re-admits it
		// before the leg ends — that recovery is the behaviour under
		// test, not a failed injection.
		_ = srv.Stack().Device.QuarantineUnit(0)
		sc.QuarantinedUnits, _ = srv.Stack().Device.QuarantinePressure()
	}
	cfg.progress("degraded leg: %.0f qps for %v, quarantining unit 0 at midpoint", degraded.QPS, legDur)
	sc.Degraded, err = Run(degraded)
	if err != nil {
		_ = srv.Shutdown()
		return nil, err
	}
	cfg.progress("%s", sc.Degraded)

	cfg.progress("draining")
	if err := srv.Shutdown(); err != nil {
		return nil, fmt.Errorf("loadtest: shutdown: %w", err)
	}
	// The metrics listener must be down before the leak check — its
	// serve goroutine is not part of the tier's drain guarantee.
	stopMetrics()
	// Graceful drain must leave zero goroutines beyond the pre-server
	// baseline; poll briefly so handler teardown can finish.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		sc.LeakedGoroutines = n - baseline
	}

	sc.accept()
	return sc, nil
}

// accept applies the acceptance criteria to the finished scenario.
func (sc *Scenario) accept() {
	if sc.Healthy != nil && !sc.Healthy.SLOPass {
		sc.Failures = append(sc.Failures,
			fmt.Sprintf("healthy leg failed SLO: %v", sc.Healthy.Violations))
	}
	if sc.Degraded != nil {
		if !sc.Degraded.SLOPass {
			sc.Failures = append(sc.Failures,
				fmt.Sprintf("degraded leg failed SLO: %v", sc.Degraded.Violations))
		}
		if sc.Degraded.OverloadSheds == 0 {
			sc.Failures = append(sc.Failures,
				"degraded leg at 2x sustainable shed nothing with ErrOverload — excess load queued instead")
		}
	}
	if sc.QuarantinedUnits == 0 {
		sc.Failures = append(sc.Failures, "mid-run quarantine did not stick")
	}
	if sc.LeakedGoroutines > 0 {
		sc.Failures = append(sc.Failures,
			fmt.Sprintf("graceful drain leaked %d goroutines", sc.LeakedGoroutines))
	}
}
