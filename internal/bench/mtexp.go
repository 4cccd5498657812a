// Multi-tenant device-level benchmark: N concurrent tenants (each
// standing in for one SQLite database's I/O stream) share one device
// through the NCQ queue, and throughput is measured across channel
// counts and queue depths. This is the leg the paper's hardware could
// not run — the Barefoot board pins the SATA link at queue depth 1 —
// and it shows what the same FTL yields once the host-side queue stops
// being the bottleneck (the LFTL observation).
package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/ncq"
	"repro/internal/simclock"
	"repro/internal/storage"
)

// MTConfig parameterizes one multi-tenant measurement point.
type MTConfig struct {
	Profile storage.Profile
	Tenants int
	Depth   int // NCQ queue depth
	Ops     int // random page writes per tenant
	// FsyncEvery issues a commit (transactional) or barrier every N
	// writes per tenant; 0 disables (pure random write, the classic
	// fio randwrite shape).
	FsyncEvery    int
	Transactional bool
	Seed          int64
}

// MTPoint is one measured multi-tenant result.
type MTPoint struct {
	Label      string                  `json:"label"`
	Channels   int                     `json:"channels"`
	Ways       int                     `json:"ways"`
	Depth      int                     `json:"depth"`
	Tenants    int                     `json:"tenants"`
	Writes     int64                   `json:"writes"`
	Elapsed    time.Duration           `json:"elapsed_ns"`
	IOPS       float64                 `json:"iops"`
	WriteLat   metrics.LatencySnapshot `json:"write_latency"`
	ReadLat    metrics.LatencySnapshot `json:"read_latency"`
	BarrierLat metrics.LatencySnapshot `json:"barrier_latency"`
	MeanDepth  float64                 `json:"mean_queue_depth"`
	// DepthHist is the full queue-occupancy histogram: DepthHist[d-1]
	// counts submissions that found d commands in flight.
	DepthHist  []int64 `json:"depth_hist"`
	PageWrites int64   `json:"nand_page_writes"`
	PageReads  int64   `json:"nand_page_reads"`
	GCRuns     int64   `json:"nand_gc_runs"`
	Erases     int64   `json:"nand_block_erases"`
}

// RunMTPoint measures one configuration: tenant goroutines submit
// random 1-page writes to disjoint LPN regions through Queue(), the
// queue drains, and IOPS comes from the virtual clock.
func RunMTPoint(cfg MTConfig) (*MTPoint, error) {
	if cfg.Transactional && cfg.FsyncEvery <= 0 {
		// An unbounded transaction would overflow the X-L2P table.
		cfg.FsyncEvery = 8
	}
	clk := simclock.New()
	d, err := storage.New(cfg.Profile, clk, storage.Options{
		Transactional: cfg.Transactional,
		QueueDepth:    cfg.Depth,
	})
	if err != nil {
		return nil, err
	}
	q := d.Queue()
	start := clk.Now()
	if err := runTenants(d, cfg, cfg.Seed); err != nil {
		return nil, err
	}
	elapsed := clk.Now() - start
	writes := int64(cfg.Tenants) * int64(cfg.Ops)
	fs := d.FlashStats().Snapshot()
	pt := &MTPoint{
		Channels:   cfg.Profile.Nand.Channels,
		Ways:       cfg.Profile.Nand.Ways,
		Depth:      q.Depth(),
		Tenants:    cfg.Tenants,
		Writes:     writes,
		Elapsed:    elapsed,
		WriteLat:   q.WriteLat.Snapshot(),
		ReadLat:    q.ReadLat.Snapshot(),
		BarrierLat: q.BarrierLat.Snapshot(),
		MeanDepth:  q.Depths.Mean(),
		DepthHist:  q.Depths.Snapshot(),
		PageWrites: fs.PageWrites,
		PageReads:  fs.PageReads,
		GCRuns:     fs.GCRuns,
		Erases:     fs.BlockErases,
	}
	if elapsed > 0 {
		pt.IOPS = float64(writes) / elapsed.Seconds()
	}
	return pt, nil
}

// runTenants is the tenant write loop both the multi-tenant and the
// fleet bench drive a device with: cfg.Tenants goroutines each submit
// cfg.Ops random 1-page writes into a disjoint LPN region (tenant t
// seeded seedBase + t*7919), fencing every cfg.FsyncEvery writes with
// a commit (transactional) or a barrier; it returns once the queue has
// drained.
func runTenants(d *storage.Device, cfg MTConfig, seedBase int64) error {
	q := d.Queue()
	region := d.LogicalPages() / int64(cfg.Tenants)
	if region > 4096 {
		region = 4096
	}
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Tenants)
	for t := 0; t < cfg.Tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seedBase + int64(t)*7919))
			data := make([]byte, d.PageSize())
			rng.Read(data)
			base := int64(t) * region
			tid := uint64(t + 1)
			fence := func() error {
				if cfg.Transactional {
					return q.Submit(&ncq.Request{Op: ncq.OpCommit, TID: tid})
				}
				return q.Submit(&ncq.Request{Op: ncq.OpBarrier})
			}
			for i := 0; i < cfg.Ops; i++ {
				lpn := base + rng.Int63n(region)
				var r ncq.Request
				if cfg.Transactional {
					r = ncq.Request{Op: ncq.OpWriteTx, TID: tid, LPN: lpn, Data: data}
				} else {
					r = ncq.Request{Op: ncq.OpWrite, LPN: lpn, Data: data}
				}
				if err := q.Submit(&r); err != nil {
					errCh <- err
					return
				}
				if cfg.FsyncEvery > 0 && (i+1)%cfg.FsyncEvery == 0 {
					if err := fence(); err != nil {
						errCh <- err
						return
					}
				}
			}
			if cfg.Transactional && cfg.Ops%cfg.FsyncEvery != 0 {
				if err := fence(); err != nil {
					errCh <- err
				}
			}
		}(t)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}
	q.Drain()
	return nil
}

// MT holds the multi-tenant sweep: random-write scaling across channel
// counts and queue depths, plus a transactional group-commit leg.
type MT struct {
	Quick  bool       `json:"quick"`
	Points []*MTPoint `json:"points"`
}

// RunMultiTenant sweeps the multi-tenant bench: 8 tenants sharing one
// OpenSSD-class device with 1, 4 and 8 channels at queue depths 1, 4
// and 32 (pure random write), plus commit-every-8 transactional legs on
// the 8-channel configuration.
func RunMultiTenant(opts Options) (*MT, error) {
	tenants, ops := 8, 12000
	if opts.Quick {
		tenants, ops = 4, 1500
	}
	mt := &MT{Quick: opts.Quick}
	run := func(label string, cfg MTConfig) error {
		opts.progress("mtenant: %s", label)
		pt, err := RunMTPoint(cfg)
		if err != nil {
			return fmt.Errorf("mtenant %s: %w", label, err)
		}
		pt.Label = label
		mt.Points = append(mt.Points, pt)
		return nil
	}
	for _, ch := range []int{1, 4, 8} {
		prof := storage.OpenSSD()
		prof.Nand.Channels = ch
		prof.Nand.Ways = 1
		prof.Channels = ch
		for _, depth := range []int{1, 4, 32} {
			label := fmt.Sprintf("randwrite ch=%d qd=%d", ch, depth)
			if err := run(label, MTConfig{
				Profile: prof, Tenants: tenants, Depth: depth,
				Ops: ops, Seed: opts.seedOr(42),
			}); err != nil {
				return nil, err
			}
		}
	}
	txProf := storage.OpenSSD()
	txProf.Nand.Channels = 8
	txProf.Nand.Ways = 1
	txProf.Channels = 8
	for _, depth := range []int{1, 32} {
		label := fmt.Sprintf("tx-commit8 ch=8 qd=%d", depth)
		if err := run(label, MTConfig{
			Profile: txProf, Tenants: tenants, Depth: depth,
			Ops: ops, FsyncEvery: 8, Transactional: true, Seed: opts.seedOr(42),
		}); err != nil {
			return nil, err
		}
	}
	return mt, nil
}

// point finds a sweep point by label, nil if absent.
func (m *MT) point(label string) *MTPoint {
	for _, p := range m.Points {
		if p.Label == label {
			return p
		}
	}
	return nil
}

// Speedup reports the random-write IOPS ratio of (channels, depth)
// over (channels, depth 1), 0 when either point is missing.
func (m *MT) Speedup(channels, depth int) float64 {
	hi := m.point(fmt.Sprintf("randwrite ch=%d qd=%d", channels, depth))
	lo := m.point(fmt.Sprintf("randwrite ch=%d qd=1", channels))
	if hi == nil || lo == nil || lo.IOPS == 0 {
		return 0
	}
	return hi.IOPS / lo.IOPS
}

// Table renders the sweep.
func (m *MT) Table() *Table {
	t := &Table{
		Title:  "Multi-tenant scaling: N databases sharing one device (random 8 KB writes)",
		Header: []string{"leg", "ch", "qd", "tenants", "writes", "IOPS", "p50", "p99", "avg depth", "GC"},
	}
	us := func(d time.Duration) string {
		return fmt.Sprintf("%.0fus", float64(d)/float64(time.Microsecond))
	}
	for _, p := range m.Points {
		t.AddRow(p.Label,
			fmt.Sprintf("%d", p.Channels),
			fmt.Sprintf("%d", p.Depth),
			fmt.Sprintf("%d", p.Tenants),
			fmt.Sprintf("%d", p.Writes),
			fmt.Sprintf("%.0f", p.IOPS),
			us(p.WriteLat.P50),
			us(p.WriteLat.P99),
			fmt.Sprintf("%.1f", p.MeanDepth),
			fmt.Sprintf("%d", p.GCRuns),
		)
	}
	if s := m.Speedup(8, 32); s > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("8-channel qd=32 vs qd=1 random-write speedup: %.1fx (acceptance: >= 3x)", s))
	}
	if s := m.Speedup(1, 32); s > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("1-channel qd=32 vs qd=1: %.1fx (queueing alone cannot beat a single cell pipeline)", s))
	}
	return t
}
