// Concurrent reader/writer benchmark for the MVCC session layer: N
// snapshot readers stream point SELECTs while one writer streams UPDATE
// transactions against the same database. The X-FTL arm runs readers
// on pinned X-L2P snapshot versions through the NCQ pipelined path, so
// reads overlap across channels and never wait for the writer; the
// control arm is the rollback-journal baseline where SQLite's database
// lock serializes every transaction. The paper argues (§5) that X-FTL
// gets this reader/writer concurrency "for free" from the versioned
// mapping table — this leg quantifies it.
package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/mvcc"
	"repro/internal/sqlite/pager"
	"repro/internal/storage"
	"repro/internal/trace"
)

// RWConfig parameterizes one reader/writer concurrency point.
type RWConfig struct {
	Profile storage.Profile
	Depth   int // NCQ queue depth
	Mode    mvcc.Mode

	Readers      int // concurrent reader sessions
	Writers      int // concurrent writer sessions, each streaming WriterTx transactions (0 = one)
	ReaderTx     int // transactions per reader
	SelectsPerTx int // point SELECTs per reader transaction
	Rows         int // table cardinality
	WriterRows   int // rows the writer updates per transaction
	WriterTx     int // update transactions the writer streams

	CacheSize int
	Seed      int64

	// Degraded runs the point on a sick array: command deadlines and
	// bounded retries at the queue, one channel/way unit force-
	// quarantined before the measurement window, and deterministic die
	// stalls injected while the writer streams. The point measures what
	// the robustness plane costs — reader tail latency must stay bounded
	// by the deadline x retry budget instead of the raw stall length.
	Degraded bool

	// Pooled enables the warm reader pool (capacity = Readers) on the
	// MVCC arm and appends a steady-state read-only phase after the
	// writer drains, over which the pool hit ratio is measured.
	Pooled bool

	// Label names the point (and its tracer generation when tracing).
	Label string
	// Trace, when set, is attached to the point's stack after seeding so
	// the measurement window is recorded as one tracer generation.
	Trace *trace.Tracer
}

// RWPoint is one measured reader/writer result.
type RWPoint struct {
	Label     string        `json:"label"`
	Mode      string        `json:"mode"`
	Channels  int           `json:"channels"`
	Depth     int           `json:"depth"`
	Readers   int           `json:"readers"`
	ReaderTx  int64         `json:"reader_tx"`
	WriterTx  int64         `json:"writer_tx"`
	Elapsed   time.Duration `json:"elapsed_ns"`
	ReaderTPS float64       `json:"reader_tps"`
	WriterTPS float64       `json:"writer_tps"`
	// Device-side snapshot counters (X-FTL arm only).
	SnapReads   int64 `json:"snap_reads"`
	SnapOldHits int64 `json:"snap_old_hits"`
	WriterWaits int64 `json:"writer_waits"`
	// Writers is how many writers streamed; FlashPerTx the flash pages
	// programmed per write transaction and GroupSize the mean transactions
	// per commit(t) (MVCC arm) over the measurement window.
	Writers    int     `json:"writers"`
	FlashPerTx float64 `json:"flash_per_tx"`
	GroupSize  float64 `json:"group_size,omitempty"`
	// Journal is the arm's writer journal mode (off, rollback, wal).
	Journal string `json:"journal,omitempty"`

	// Warm reader-pool counters over the steady-state read phase
	// (Pooled points only).
	PoolHits     int64   `json:"pool_hits,omitempty"`
	PoolMisses   int64   `json:"pool_misses,omitempty"`
	PoolHitRatio float64 `json:"pool_hit_ratio,omitempty"`

	// Degraded-mode counters (Degraded points only).
	Retries          int64 `json:"retries,omitempty"`
	Timeouts         int64 `json:"timeouts,omitempty"`
	QuarantinedUnits int64 `json:"quarantined_units,omitempty"`

	// Per-role host I/O attribution over the measurement window: what
	// the reader sessions cost versus what the writer sessions cost.
	ReaderIO metrics.HostSnapshot `json:"reader_io"`
	WriterIO metrics.HostSnapshot `json:"writer_io"`
	// ReaderLat is device-read latency merged across all readers;
	// ReaderLats is the same broken out per reader client.
	ReaderLat  metrics.LatencySnapshot   `json:"reader_read_latency"`
	ReaderLats []metrics.LatencySnapshot `json:"per_reader_read_latency,omitempty"`
	// Gauges samples the stack's metrics registry after the run drains.
	Gauges []metrics.Sample `json:"gauges,omitempty"`
}

// Degraded-point sizing: the deadline is measured submit-to-complete,
// so it must clear healthy per-unit queueing — an MLC program alone is
// ~1.3ms, and a couple of writes queued on one die stack past 2ms — or
// healthy units trip spurious timeouts and the quarantine storm spreads
// to the cap. 10ms clears honest queueing at full load while the 30ms
// stall is still
// several deadlines long, so hung attempts time out and reissue instead
// of waiting the stall out; the retry budget then bounds the worst tail
// at roughly deadline x retries + backoff, independent of stall length.
const (
	rwDegradedDeadline  = 10 * time.Millisecond
	rwDegradedRetries   = 10
	rwDegradedStall     = 30 * time.Millisecond
	rwDegradedHangEvery = 8 // writer transactions between injected stalls
)

// RunRWPoint measures one configuration. Readers run to completion
// (Readers × ReaderTx transactions) while the writer concurrently
// streams WriterTx update transactions, so reader throughput is
// measured under an active writer; the clock stops when both sides
// finish. Work is fixed on both sides so the virtual elapsed time is
// the cost of the combined workload, not an artifact of host
// scheduling.
func RunRWPoint(cfg RWConfig) (*RWPoint, error) {
	mode, journal := RBJ, pager.Rollback
	switch cfg.Mode {
	case mvcc.MVCC:
		mode, journal = XFTL, pager.Off
	case mvcc.WALConc:
		mode, journal = WAL, pager.WAL
	}
	devOpts := storage.Options{QueueDepth: cfg.Depth}
	if cfg.Degraded {
		devOpts.CmdDeadline = rwDegradedDeadline
		devOpts.CmdRetries = rwDegradedRetries
	}
	st, err := xftl.NewStackDevice(cfg.Profile, mode, devOpts,
		xftl.StackOptions{CacheSize: cfg.CacheSize})
	if err != nil {
		return nil, err
	}
	mgrOpts := mvcc.Options{
		Mode:      cfg.Mode,
		Journal:   journal,
		CacheSize: cfg.CacheSize,
		Pipelined: cfg.Mode == mvcc.MVCC || cfg.Mode == mvcc.WALConc,
	}
	if cfg.Pooled {
		mgrOpts.PoolCapacity = cfg.Readers
	}
	mgr, err := mvcc.NewManager(st.FS, "rw.db", mgrOpts)
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	// The session layer (reader pool, WAL checkpointing) publishes into
	// the stack's registry, so it lands in the point's gauge snapshot.
	mgr.Register(st.Gauges, "0")

	// Seed the table: fixed-width rows so every point SELECT costs a
	// real page read once the cache is cold.
	w, err := mgr.Begin(false)
	if err != nil {
		return nil, err
	}
	if _, err := w.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER, pad TEXT)"); err != nil {
		return nil, err
	}
	pad := make([]byte, 128)
	for i := range pad {
		pad[i] = 'x'
	}
	for k := 0; k < cfg.Rows; k++ {
		if _, err := w.Exec("INSERT INTO kv (k, v, pad) VALUES (?, 0, ?)", int64(k), string(pad)); err != nil {
			return nil, err
		}
	}
	if err := w.Commit(); err != nil {
		return nil, err
	}

	// Degraded array: fence one unit before the window opens (live pages
	// drain, allocation steers away) so the whole measurement runs on a
	// reduced array with probe traffic trickling to the sick die.
	units := cfg.Profile.Nand.Units()
	if cfg.Degraded {
		if err := st.Device.QuarantineUnit(0); err != nil {
			return nil, err
		}
	}

	// Attach the tracer only now: seeding I/O stays out of the trace,
	// and the measurement window becomes its own tracer generation.
	if cfg.Trace != nil {
		cfg.Trace.Attach(st.Clock, cfg.Label)
		st.SetTracer(cfg.Trace)
	}
	// Role aggregates accumulated the seeding writes; measure deltas.
	readerIO0 := mgr.ReaderIO.Host.Snapshot()
	writerIO0 := mgr.WriterIO.Host.Snapshot()
	writerStats := &metrics.IOStats{}
	readerStats := make([]*metrics.IOStats, cfg.Readers)
	for r := range readerStats {
		readerStats[r] = &metrics.IOStats{}
	}

	start, flash0 := st.Clock.Now(), st.FlashStats().Snapshot()
	groups0, members0 := mgr.Stats.GroupCommits.Load(), mgr.Stats.GroupMembers.Load()
	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		writerTx atomic.Int64
		firstErr atomic.Value
	)
	fail := func(err error) {
		if err != nil {
			firstErr.CompareAndSwap(nil, err)
			stop.Store(true)
		}
	}
	// Writers start together: a goroutine that got going first would
	// otherwise stream half its transactions before the next one exists.
	gate := make(chan struct{})
	for w := 0; w < max(cfg.Writers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D + int64(w)*7919))
			<-gate
			for g := int64(1); g <= int64(cfg.WriterTx) && !stop.Load(); g++ {
				if cfg.Degraded && g%rwDegradedHangEvery == 0 && units > 1 {
					// Deterministic error storm: one sick die (unit 1) stalls
					// repeatedly mid-stream. Its timeouts trip quarantine too,
					// so the point exercises the full plane: the forced fence
					// on unit 0, a storm-tripped fence on unit 1, and the
					// deadline/retry path riding out every stall.
					st.Device.HangUnit(1, rwDegradedStall)
				}
				s, err := mgr.BeginWith(false, writerStats, mvcc.Unbounded)
				if err != nil {
					fail(err)
					return
				}
				for i := 0; i < cfg.WriterRows; i++ {
					k := rng.Int63n(int64(cfg.Rows))
					if _, err := s.Exec("UPDATE kv SET v = ? WHERE k = ?", g, k); err != nil {
						fail(err)
						_ = s.Rollback()
						return
					}
				}
				if err := s.Commit(); err != nil {
					fail(err)
					return
				}
				writerTx.Add(1)
			}
		}()
	}
	close(gate)
	for r := 0; r < cfg.Readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(r)*7919))
			for t := 0; t < cfg.ReaderTx && !stop.Load(); t++ {
				s, err := mgr.BeginWith(true, readerStats[r], mvcc.Unbounded)
				if err != nil {
					fail(err)
					return
				}
				for i := 0; i < cfg.SelectsPerTx; i++ {
					k := rng.Int63n(int64(cfg.Rows))
					if _, _, err := s.QueryRow("SELECT v FROM kv WHERE k = ?", k); err != nil {
						fail(err)
						_ = s.Rollback()
						return
					}
				}
				if err := s.Commit(); err != nil {
					fail(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	st.Device.Queue().Drain()
	if err, _ := firstErr.Load().(error); err != nil {
		return nil, err
	}
	elapsed := st.Clock.Now() - start
	pt := &RWPoint{
		Mode:        cfg.Mode.String(),
		Channels:    cfg.Profile.Nand.Channels,
		Depth:       st.Device.Queue().Depth(),
		Readers:     cfg.Readers,
		ReaderTx:    mgr.Stats.ReadTx.Load(),
		WriterTx:    writerTx.Load(),
		Elapsed:     elapsed,
		WriterWaits: mgr.Stats.WriterWaits.Load(),
		Writers:     max(cfg.Writers, 1),
	}
	if pt.WriterTx > 0 {
		pt.FlashPerTx = float64(st.FlashStats().Snapshot().Sub(flash0).PageWrites) / float64(pt.WriterTx)
	}
	if groups := mgr.Stats.GroupCommits.Load() - groups0; groups > 0 {
		pt.GroupSize = float64(mgr.Stats.GroupMembers.Load()-members0) / float64(groups)
	}
	if x := st.Device.XFTL(); x != nil {
		xs := x.Stats()
		pt.SnapReads = xs.SnapReads
		pt.SnapOldHits = xs.SnapOldHits
	}
	if cfg.Degraded {
		pt.Retries = st.Device.Queue().Retries()
		pt.Timeouts = st.Device.Queue().Timeouts()
		pt.QuarantinedUnits = st.Device.FTL().QuarantinedUnits()
	}
	if elapsed > 0 {
		pt.ReaderTPS = float64(pt.ReaderTx) / elapsed.Seconds()
		pt.WriterTPS = float64(pt.WriterTx) / elapsed.Seconds()
	}
	pt.Label = cfg.Label
	pt.Journal = journal.String()
	pt.ReaderIO = mgr.ReaderIO.Host.Snapshot().Sub(readerIO0)
	pt.WriterIO = mgr.WriterIO.Host.Snapshot().Sub(writerIO0)
	merged := &metrics.LatencyHist{}
	for _, sc := range readerStats {
		merged.Merge(&sc.ReadLat)
		pt.ReaderLats = append(pt.ReaderLats, sc.ReadLat.Snapshot())
	}
	pt.ReaderLat = merged.Snapshot()

	// Steady-state read phase (pooled arm): the writer has drained, so
	// the committed generation is frozen — after one warm-up round
	// populates the pool, every read session should check out warm. The
	// hit ratio is measured over this phase alone; during the
	// concurrent window commits invalidate the pool by design.
	if cfg.Pooled {
		base, _ := mgr.PoolStats()
		steadyTx := cfg.ReaderTx
		if steadyTx < 20 {
			steadyTx = 20
		}
		var swg sync.WaitGroup
		for r := 0; r < cfg.Readers; r++ {
			swg.Add(1)
			go func(r int) {
				defer swg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(r)*104729))
				for t := 0; t < steadyTx && !stop.Load(); t++ {
					s, err := mgr.BeginWith(true, readerStats[r], mvcc.Unbounded)
					if err != nil {
						fail(err)
						return
					}
					k := rng.Int63n(int64(cfg.Rows))
					if _, _, err := s.QueryRow("SELECT v FROM kv WHERE k = ?", k); err != nil {
						fail(err)
						_ = s.Rollback()
						return
					}
					if err := s.Commit(); err != nil {
						fail(err)
						return
					}
				}
			}(r)
		}
		swg.Wait()
		st.Device.Queue().Drain()
		if err, _ := firstErr.Load().(error); err != nil {
			return nil, err
		}
		now, _ := mgr.PoolStats()
		pt.PoolHits = now.Hits - base.Hits
		pt.PoolMisses = now.Misses - base.Misses
		if n := pt.PoolHits + pt.PoolMisses; n > 0 {
			pt.PoolHitRatio = float64(pt.PoolHits) / float64(n)
		}
	}
	pt.Gauges = st.Gauges.Snapshot()
	return pt, nil
}

// Short-read micro-leg sizing: enough transactions for a stable median
// after the warm-up rounds are discarded.
const (
	shortReadTx     = 48
	shortReadWarmup = 4
)

// runShortRead measures the short-read path — one session is a
// snapshot open, a single point SELECT, and a close — in virtual time
// per transaction, with or without the warm reader pool. This is the
// cost the pool exists to remove: a cold open pays catalog and btree
// root reads from the device on every transaction, a warm checkout
// reuses them from the pooled pager cache.
func runShortRead(opts Options, pooled bool) (time.Duration, error) {
	st, err := xftl.NewStackDevice(rwProfile(8), XFTL, storage.Options{QueueDepth: 32},
		xftl.StackOptions{CacheSize: 64})
	if err != nil {
		return 0, err
	}
	mgrOpts := mvcc.Options{Mode: mvcc.MVCC, Journal: pager.Off, CacheSize: 64, Pipelined: true}
	if pooled {
		mgrOpts.PoolCapacity = 4
	}
	mgr, err := mvcc.NewManager(st.FS, "short.db", mgrOpts)
	if err != nil {
		return 0, err
	}
	defer mgr.Close()
	w, err := mgr.Begin(false)
	if err != nil {
		return 0, err
	}
	if _, err := w.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		return 0, err
	}
	const rows = 512
	for k := 0; k < rows; k++ {
		if _, err := w.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", int64(k), int64(k)); err != nil {
			return 0, err
		}
	}
	if err := w.Commit(); err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(opts.seedOr(42)))
	durs := make([]time.Duration, 0, shortReadTx)
	for t := 0; t < shortReadTx+shortReadWarmup; t++ {
		t0 := st.Clock.Now()
		s, err := mgr.Begin(true)
		if err != nil {
			return 0, err
		}
		k := rng.Int63n(rows)
		if _, _, err := s.QueryRow("SELECT v FROM kv WHERE k = ?", k); err != nil {
			_ = s.Rollback()
			return 0, err
		}
		if err := s.Commit(); err != nil {
			return 0, err
		}
		if t >= shortReadWarmup {
			durs = append(durs, st.Clock.Now()-t0)
		}
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2], nil
}

// rwProfile is the sweep's device: the OpenSSD profile with that many
// channels of one way each.
func rwProfile(channels int) storage.Profile {
	prof := storage.OpenSSD()
	prof.Nand.Channels = channels
	prof.Nand.Ways = 1
	prof.Channels = channels
	return prof
}

// RWC holds the reader/writer concurrency sweep.
type RWC struct {
	Quick  bool       `json:"quick"`
	Points []*RWPoint `json:"points"`
	// Writers is the writers x channels sweep of the MVCC arm: no readers,
	// 4 single-row UPDATEs per transaction.
	Writers []*RWPoint `json:"writers"`
	// Journal records the -journal selection; Baseline is the label of
	// the arm the speedup notes compare against.
	Journal  string `json:"journal"`
	Baseline string `json:"baseline"`
	// Short-read micro-leg: virtual-time p50 of one snapshot-open +
	// point-SELECT + close transaction, warm pool versus cold opens,
	// and their ratio (pooled p50 is floored at 1ns for the ratio — a
	// fully warm read costs no device I/O at all).
	ShortPooledP50   time.Duration `json:"short_pooled_p50_ns"`
	ShortColdP50     time.Duration `json:"short_cold_p50_ns"`
	ShortReadSpeedup float64       `json:"short_read_speedup"`
}

// RunRWConc sweeps the MVCC arm across channel counts and runs the
// serialized rollback-journal control at the top configuration.
func RunRWConc(opts Options) (*RWC, error) {
	// The table (rows x ~160 B) spans well past the 64-page cache, so
	// point SELECTs pay device reads in both arms; the serialized arm
	// is not handed an all-cache-hit read path.
	readers, readerTx, selects, rows, wrows, wtx := 8, 20, 16, 4096, 16, 48
	if opts.Quick {
		readers, readerTx, selects, rows, wrows, wtx = 4, 8, 4, 1024, 8, 16
	}
	journal := opts.Journal
	if journal == "" {
		journal = "rbj"
	}
	baseline := "serialized-rbj ch=8"
	if journal == "wal" {
		baseline = "wal ch=8"
	}
	out := &RWC{Quick: opts.Quick, Journal: journal, Baseline: baseline}
	run := func(label string, cfg RWConfig) error {
		opts.progress("rwconc: %s", label)
		cfg.Label = label
		cfg.Trace = opts.Trace
		pt, err := RunRWPoint(cfg)
		if err != nil {
			return fmt.Errorf("rwconc %s: %w", label, err)
		}
		out.Points = append(out.Points, pt)
		return nil
	}
	base := RWConfig{
		Depth: 32, Readers: readers, ReaderTx: readerTx,
		SelectsPerTx: selects, Rows: rows, WriterRows: wrows,
		WriterTx: wtx, CacheSize: 32, Seed: opts.seedOr(42),
	}
	channels := []int{1, 4, 8}
	if opts.Quick {
		channels = []int{2, 8}
	}
	for _, ch := range channels {
		cfg := base
		cfg.Profile = rwProfile(ch)
		cfg.Mode = mvcc.MVCC
		if err := run(fmt.Sprintf("mvcc ch=%d", ch), cfg); err != nil {
			return nil, err
		}
	}
	// Pooled leg: the top MVCC configuration with the warm reader pool
	// on, plus a steady-state read phase measuring the pool hit ratio.
	{
		cfg := base
		cfg.Profile = rwProfile(8)
		cfg.Mode = mvcc.MVCC
		cfg.Pooled = true
		if err := run("mvcc ch=8 pooled", cfg); err != nil {
			return nil, err
		}
	}
	// WAL concurrent-reader arm: the writer journals through the
	// write-ahead log while readers capture (db file, log index) views
	// and read without the lock — the strongest journal-level baseline
	// for reader/writer concurrency, on the same hardware as the top
	// MVCC point.
	{
		cfg := base
		cfg.Profile = rwProfile(8)
		cfg.Mode = mvcc.WALConc
		if err := run("wal ch=8", cfg); err != nil {
			return nil, err
		}
	}
	// Degraded leg: the top MVCC configuration on a sick array — one
	// unit force-quarantined, another storming, command deadlines/
	// retries absorbing both. Quantifies what degraded mode costs and
	// shows the reader tail stays bounded by the retry budget.
	{
		cfg := base
		cfg.Profile = rwProfile(8)
		cfg.Mode = mvcc.MVCC
		cfg.Degraded = true
		if err := run("mvcc ch=8 degraded", cfg); err != nil {
			return nil, err
		}
	}
	// Control arm: same hardware as the top MVCC point, but SQLite's
	// rollback journal with the one database lock.
	cfg := base
	cfg.Profile = rwProfile(8)
	cfg.Mode = mvcc.Serialized
	if err := run("serialized-rbj ch=8", cfg); err != nil {
		return nil, err
	}
	// Writers x channels on the MVCC arm: what queued commit-time writes
	// and group commit buy as writers and flash units are added.
	wchannels, wtxEach := []int{1, 2, 4, 8}, 64
	if opts.Quick {
		wchannels, wtxEach = []int{2, 8}, 32
	}
	for _, writers := range []int{1, 2, 4} {
		for _, ch := range wchannels {
			label := fmt.Sprintf("writers=%d ch=%d", writers, ch)
			opts.progress("rwconc: %s", label)
			pt, err := RunRWPoint(RWConfig{
				Profile: rwProfile(ch), Depth: 32, Mode: mvcc.MVCC, Label: label,
				Writers: writers, WriterTx: wtxEach, WriterRows: 4, Rows: rows, CacheSize: 32, Seed: base.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("rwconc %s: %w", label, err)
			}
			out.Writers = append(out.Writers, pt)
		}
	}
	// Short-read micro-leg: what the warm pool saves on the
	// open-read-close path, pooled versus cold-open p50.
	opts.progress("rwconc: short-read p50 (pooled vs cold)")
	pooledP50, err := runShortRead(opts, true)
	if err != nil {
		return nil, err
	}
	coldP50, err := runShortRead(opts, false)
	if err != nil {
		return nil, err
	}
	out.ShortPooledP50, out.ShortColdP50 = pooledP50, coldP50
	floor := out.ShortPooledP50
	if floor <= 0 {
		floor = time.Nanosecond
	}
	out.ShortReadSpeedup = float64(out.ShortColdP50) / float64(floor)
	return out, nil
}

// point finds a sweep point by label, nil if absent.
func (r *RWC) point(label string) *RWPoint {
	for _, p := range r.Points {
		if p.Label == label {
			return p
		}
	}
	return nil
}

// ReaderSpeedup reports MVCC reader throughput at the given channel
// count over the selected baseline arm (serialized rollback journal by
// default, the WAL concurrent-reader arm under -journal wal), 0 when
// missing.
func (r *RWC) ReaderSpeedup(channels int) float64 {
	baseline := r.Baseline
	if baseline == "" {
		baseline = "serialized-rbj ch=8"
	}
	hi := r.point(fmt.Sprintf("mvcc ch=%d", channels))
	lo := r.point(baseline)
	if hi == nil || lo == nil || lo.ReaderTPS == 0 {
		return 0
	}
	return hi.ReaderTPS / lo.ReaderTPS
}

// WritersTable renders the writers x channels sweep.
func (r *RWC) WritersTable() *Table {
	t := &Table{
		Title:  "Group commit: writers x channels on the MVCC arm (4 single-row UPDATEs per transaction, no readers)",
		Header: []string{"writers", "channels", "writer tx", "writer tx/s", "flash pages/tx", "mean group size"},
	}
	for _, p := range r.Writers {
		t.AddRow(fmt.Sprint(p.Writers), fmt.Sprint(p.Channels), fmt.Sprint(p.WriterTx),
			fmt.Sprintf("%.0f", p.WriterTPS), fmt.Sprintf("%.1f", p.FlashPerTx), fmt.Sprintf("%.2f", p.GroupSize))
	}
	t.Notes = append(t.Notes,
		"Writers queue on the FIFO ticket lock; one that reaches commit with a successor queued leaves its pages in the file-system cache and the last of the group issues the one commit(t). Group sizes depend on host scheduling, so these figures repeat only approximately.")
	return t
}

// Table renders the sweep.
func (r *RWC) Table() *Table {
	t := &Table{
		Title:  "Snapshot readers vs serialized baseline (point SELECTs under a streaming writer)",
		Header: []string{"config", "channels", "readers", "reader tx", "writer tx", "reader tx/s", "writer tx/s", "old-version hits"},
	}
	for _, p := range r.Points {
		t.AddRow(p.Label, fmt.Sprint(p.Channels), fmt.Sprint(p.Readers),
			fmt.Sprint(p.ReaderTx), fmt.Sprint(p.WriterTx),
			fmt.Sprintf("%.0f", p.ReaderTPS), fmt.Sprintf("%.0f", p.WriterTPS),
			fmt.Sprint(p.SnapOldHits))
	}
	for _, ch := range []int{8, 4, 2, 1} {
		if s := r.ReaderSpeedup(ch); s > 0 {
			t.Notes = append(t.Notes,
				fmt.Sprintf("MVCC readers at %d channels run %.1fx the %q baseline.", ch, s, r.Baseline))
		}
	}
	for _, p := range r.Points {
		if p.PoolHits+p.PoolMisses > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: steady-state reader-pool hit ratio %.2f (%d hits / %d misses).",
				p.Label, p.PoolHitRatio, p.PoolHits, p.PoolMisses))
		}
	}
	if r.ShortColdP50 > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"Short read (snapshot open + point SELECT + close): p50 %v cold-open vs %v pooled (%.0fx).",
			r.ShortColdP50, r.ShortPooledP50, r.ShortReadSpeedup))
	}
	for _, p := range r.Points {
		if p.ReaderLat.Count == 0 {
			continue
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: reader I/O %d reads (p50=%v p95=%v p99=%v); writer I/O %d writes, %d reads, %d fsyncs.",
			p.Label, p.ReaderIO.Reads, p.ReaderLat.P50, p.ReaderLat.P95, p.ReaderLat.P99,
			p.WriterIO.TotalWrites(), p.WriterIO.Reads, p.WriterIO.Fsyncs))
	}
	for _, p := range r.Points {
		if p.Retries+p.Timeouts > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s ran with %d unit(s) quarantined and repeated die stalls: %d command timeouts, %d retries; reader p99 %v stays bounded by the deadline x retry budget.",
				p.Label, p.QuarantinedUnits, p.Timeouts, p.Retries, p.ReaderLat.P99))
		}
	}
	t.Notes = append(t.Notes,
		"Readers pin the committed X-L2P version set at BEGIN and read superseded pages in place (paper §5); the baseline takes SQLite's database lock for every transaction.")
	return t
}
