// Fleet-level benchmark: N independent X-FTL shards, each its own
// device + queue + clock, driven by per-shard tenant streams. Shards do
// not share any simulation state, so aggregate throughput should scale
// with the member count at fixed per-shard load — the property the
// shard router is sold on — and the bench measures exactly that, plus
// the cost of cross-shard 2PC transactions on top.
//
// Aggregate throughput across independent virtual clocks is total
// writes divided by the slowest member's elapsed window: every shard
// ran concurrently in wall terms, so the fleet is done when its last
// member is.
package bench

import (
	"fmt"
	"sync"
	"time"

	xftl "repro"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/trace"
)

// FleetConfig parameterizes one fleet measurement point.
type FleetConfig struct {
	Profile storage.Profile
	Shards  int
	Tenants int // tenants per shard (fixed per-shard load)
	Depth   int // per-shard NCQ depth
	Ops     int // random transactional page writes per tenant
	// FsyncEvery issues a per-tenant commit every N writes.
	FsyncEvery int
	Seed       int64
	// Tracer, when enabled, absorbs each member's private tracer after
	// the run ("shard N" generations), exposing per-shard GC
	// interference side by side in one Chrome trace.
	Tracer *trace.Tracer
}

// FleetShard is one member's share of a fleet point.
type FleetShard struct {
	Shard      int           `json:"shard"`
	Writes     int64         `json:"writes"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	IOPS       float64       `json:"iops"`
	MeanDepth  float64       `json:"mean_queue_depth"`
	PageWrites int64         `json:"nand_page_writes"`
	GCRuns     int64         `json:"nand_gc_runs"`
	Erases     int64         `json:"nand_block_erases"`
}

// FleetPoint is one measured fleet configuration.
type FleetPoint struct {
	Label    string        `json:"label"`
	Shards   int           `json:"shards"`
	Tenants  int           `json:"tenants_per_shard"`
	Depth    int           `json:"depth"`
	Writes   int64         `json:"writes"`
	Elapsed  time.Duration `json:"elapsed_ns"` // slowest member's window
	AggIOPS  float64       `json:"aggregate_iops"`
	PerShard []FleetShard  `json:"per_shard"`
}

// FleetCrossPoint measures cross-shard 2PC transaction throughput.
type FleetCrossPoint struct {
	Label   string        `json:"label"`
	Shards  int           `json:"shards"`
	Txs     int64         `json:"cross_txs"`
	Elapsed time.Duration `json:"elapsed_ns"`
	TPS     float64       `json:"tx_per_sec"`
}

// RunFleetPoint measures one fleet configuration: every member runs the
// same tenant load (transactional random page writes through its own
// queue) concurrently on its own virtual clock.
func RunFleetPoint(cfg FleetConfig) (*FleetPoint, error) {
	if cfg.FsyncEvery <= 0 {
		cfg.FsyncEvery = 8 // an unbounded transaction would overflow the X-L2P table
	}
	stacks, tracers, err := xftl.NewFleet(xftl.FleetSpec{
		Shards:  cfg.Shards,
		Profile: cfg.Profile,
		Mode:    xftl.ModeXFTL,
		Options: xftl.StackOptions{QueueDepth: cfg.Depth},
		Trace:   cfg.Tracer.Enabled(),
	})
	if err != nil {
		return nil, err
	}
	defer func() { _ = xftl.CloseFleet(stacks) }()

	pt := &FleetPoint{
		Shards:   cfg.Shards,
		Tenants:  cfg.Tenants,
		Depth:    cfg.Depth,
		PerShard: make([]FleetShard, cfg.Shards),
	}
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Shards)
	for si, st := range stacks {
		wg.Add(1)
		go func(si int, st *xftl.Stack) {
			defer wg.Done()
			elapsed, err := runShardLoad(st, cfg, int64(si))
			if err != nil {
				errCh <- fmt.Errorf("shard %d: %w", si, err)
				return
			}
			fs := st.FlashStats().Snapshot()
			writes := int64(cfg.Tenants) * int64(cfg.Ops)
			s := FleetShard{
				Shard:      si,
				Writes:     writes,
				Elapsed:    elapsed,
				MeanDepth:  st.Device.Queue().Depths.Mean(),
				PageWrites: fs.PageWrites,
				GCRuns:     fs.GCRuns,
				Erases:     fs.BlockErases,
			}
			if elapsed > 0 {
				s.IOPS = float64(writes) / elapsed.Seconds()
			}
			pt.PerShard[si] = s
		}(si, st)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return nil, err
	}
	for _, s := range pt.PerShard {
		pt.Writes += s.Writes
		if s.Elapsed > pt.Elapsed {
			pt.Elapsed = s.Elapsed
		}
	}
	if pt.Elapsed > 0 {
		pt.AggIOPS = float64(pt.Writes) / pt.Elapsed.Seconds()
	}
	cfg.Tracer.Absorb(tracers...)
	return pt, nil
}

// runShardLoad drives one member with the transactional tenant load
// and returns its virtual elapsed time once its queue drained.
func runShardLoad(st *xftl.Stack, cfg FleetConfig, shardSeed int64) (time.Duration, error) {
	start := st.Clock.Now()
	err := runTenants(st.Device, MTConfig{
		Tenants: cfg.Tenants, Ops: cfg.Ops, FsyncEvery: cfg.FsyncEvery, Transactional: true,
	}, cfg.Seed+shardSeed*104729)
	if err != nil {
		return 0, err
	}
	return st.Clock.Now() - start, nil
}

// RunFleetCross measures cross-shard 2PC throughput: transactions each
// touch one database on every shard, so every commit pays the full
// prepare / decision-log / commit protocol.
func RunFleetCross(shards, txs int, seed int64) (*FleetCrossPoint, error) {
	f, err := shard.New(shard.Options{
		Shards:  shards,
		Profile: xftl.OpenSSD(),
		Mode:    xftl.ModeXFTL,
	})
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	// One database per shard, spread by probing names.
	dbs := make([]string, 0, shards)
	seen := make(map[int]bool)
	for i := 0; len(dbs) < shards; i++ {
		db := fmt.Sprintf("cross-%d.db", i)
		if s := f.Route(db); !seen[s] {
			seen[s] = true
			dbs = append(dbs, db)
		}
	}
	for _, db := range dbs {
		s, err := f.Begin(db, false)
		if err != nil {
			return nil, err
		}
		if _, err := s.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
			return nil, err
		}
		if _, err := s.Exec("INSERT INTO kv VALUES (1, 0)"); err != nil {
			return nil, err
		}
		if err := s.Commit(); err != nil {
			return nil, err
		}
	}
	starts := make([]time.Duration, shards)
	for i, st := range f.Stacks() {
		starts[i] = st.Clock.Now()
	}
	for n := 0; n < txs; n++ {
		tx, err := f.BeginCross(dbs...)
		if err != nil {
			return nil, err
		}
		for _, db := range dbs {
			if _, err := tx.Exec(db, fmt.Sprintf("UPDATE kv SET v = %d WHERE k = 1", n)); err != nil {
				return nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	pt := &FleetCrossPoint{Shards: shards, Txs: int64(txs)}
	for i, st := range f.Stacks() {
		if e := st.Clock.Now() - starts[i]; e > pt.Elapsed {
			pt.Elapsed = e
		}
	}
	if pt.Elapsed > 0 {
		pt.TPS = float64(pt.Txs) / pt.Elapsed.Seconds()
	}
	return pt, nil
}

// FleetBench holds the fleet sweep results.
type FleetBench struct {
	Quick  bool               `json:"quick"`
	Points []*FleetPoint      `json:"points"`
	Cross  []*FleetCrossPoint `json:"cross,omitempty"`
}

// RunFleet sweeps shard counts 1..maxShards (powers of two) at fixed
// per-shard load across two queue depths, then measures cross-shard
// 2PC throughput at each multi-shard count.
func RunFleet(opts Options, maxShards int) (*FleetBench, error) {
	if maxShards <= 0 {
		maxShards = 4
	}
	tenants, ops, crossTxs := 4, 6000, 120
	if opts.Quick {
		tenants, ops, crossTxs = 2, 800, 20
	}
	fb := &FleetBench{Quick: opts.Quick}
	var counts []int
	for n := 1; n <= maxShards; n *= 2 {
		counts = append(counts, n)
	}
	for _, depth := range []int{1, 8} {
		for _, n := range counts {
			label := fmt.Sprintf("fleet sh=%d qd=%d", n, depth)
			opts.progress("fleet: %s", label)
			pt, err := RunFleetPoint(FleetConfig{
				Profile: storage.OpenSSD(),
				Shards:  n,
				Tenants: tenants,
				Depth:   depth,
				Ops:     ops,
				Seed:    opts.seedOr(42),
				Tracer:  opts.Trace,
			})
			if err != nil {
				return nil, fmt.Errorf("fleet %s: %w", label, err)
			}
			pt.Label = label
			fb.Points = append(fb.Points, pt)
		}
	}
	for _, n := range counts {
		if n < 2 {
			continue
		}
		label := fmt.Sprintf("cross-2pc sh=%d", n)
		opts.progress("fleet: %s", label)
		pt, err := RunFleetCross(n, crossTxs, opts.seedOr(42))
		if err != nil {
			return nil, fmt.Errorf("fleet %s: %w", label, err)
		}
		pt.Label = label
		fb.Cross = append(fb.Cross, pt)
	}
	return fb, nil
}

// point finds a sweep point by label, nil if absent.
func (fb *FleetBench) point(label string) *FleetPoint {
	for _, p := range fb.Points {
		if p.Label == label {
			return p
		}
	}
	return nil
}

// Speedup reports aggregate random-write IOPS of an n-shard fleet over
// the single-shard fleet at the same per-shard config; 0 when either
// point is missing.
func (fb *FleetBench) Speedup(shards, depth int) float64 {
	hi := fb.point(fmt.Sprintf("fleet sh=%d qd=%d", shards, depth))
	lo := fb.point(fmt.Sprintf("fleet sh=1 qd=%d", depth))
	if hi == nil || lo == nil || lo.AggIOPS == 0 {
		return 0
	}
	return hi.AggIOPS / lo.AggIOPS
}

// maxGCSkew reports the largest relative spread of GC runs across one
// point's members — the per-shard GC interference figure (independent
// shards should see near-uniform GC load under uniform traffic).
func maxGCSkew(p *FleetPoint) float64 {
	if len(p.PerShard) < 2 {
		return 0
	}
	lo, hi := p.PerShard[0].GCRuns, p.PerShard[0].GCRuns
	for _, s := range p.PerShard[1:] {
		if s.GCRuns < lo {
			lo = s.GCRuns
		}
		if s.GCRuns > hi {
			hi = s.GCRuns
		}
	}
	if hi == 0 {
		return 0
	}
	return float64(hi-lo) / float64(hi)
}

// Table renders the sweep.
func (fb *FleetBench) Table() *Table {
	t := &Table{
		Title:  "Fleet scaling: independent X-FTL shards at fixed per-shard load (random 8 KB transactional writes)",
		Header: []string{"leg", "shards", "qd", "tenants/sh", "writes", "agg IOPS", "slowest", "GC min..max", "GC skew"},
	}
	for _, p := range fb.Points {
		lo, hi := int64(0), int64(0)
		if len(p.PerShard) > 0 {
			lo, hi = p.PerShard[0].GCRuns, p.PerShard[0].GCRuns
			for _, s := range p.PerShard[1:] {
				if s.GCRuns < lo {
					lo = s.GCRuns
				}
				if s.GCRuns > hi {
					hi = s.GCRuns
				}
			}
		}
		t.AddRow(p.Label,
			fmt.Sprintf("%d", p.Shards),
			fmt.Sprintf("%d", p.Depth),
			fmt.Sprintf("%d", p.Tenants),
			fmt.Sprintf("%d", p.Writes),
			fmt.Sprintf("%.0f", p.AggIOPS),
			fmt.Sprintf("%.1fms", float64(p.Elapsed)/float64(time.Millisecond)),
			fmt.Sprintf("%d..%d", lo, hi),
			fmt.Sprintf("%.0f%%", maxGCSkew(p)*100),
		)
	}
	for _, c := range fb.Cross {
		t.AddRow(c.Label,
			fmt.Sprintf("%d", c.Shards), "-", "-",
			fmt.Sprintf("%d", c.Txs),
			fmt.Sprintf("%.0f tx/s", c.TPS),
			fmt.Sprintf("%.1fms", float64(c.Elapsed)/float64(time.Millisecond)),
			"-", "-",
		)
	}
	if s := fb.Speedup(2, 8); s > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("2-shard vs 1-shard aggregate speedup at qd=8: %.2fx (acceptance: >= 1.7x)", s))
	}
	if s := fb.Speedup(4, 8); s > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("4-shard vs 1-shard aggregate speedup at qd=8: %.2fx (acceptance: >= 3x)", s))
	}
	return t
}
