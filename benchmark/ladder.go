package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	xftl "repro"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/mvcc"
	"repro/internal/nand"
	"repro/internal/ncq"
	"repro/internal/server"
	"repro/internal/simclock"
	"repro/internal/simfs"
	"repro/internal/sqlite/btree"
	"repro/internal/sqlite/pager"
	"repro/internal/sqlite/sqlparse"
	"repro/internal/storage"
)

// The layer ladder: each layer is built stand-alone through its public
// constructor, over a small array with the workload's channel geometry
// and page size, and its hop is timed with the workload's access
// pattern (random page overwrites at GC steady state; point SELECT and
// UPDATE on the workload's schema). A rung records the hop's cost on
// all three axes and the lower-layer work it caused, from the ladder
// stack's own counters, so a layer's self time is its hop minus the
// hops it made into the layers below.

// ladderBlocks sizes ladder devices: big enough to reach GC steady
// state, small enough that a rung costs a fraction of a second. Hops
// that scale with exported capacity (the baseline FTL's full-map
// barrier) are therefore the ladder device's, comparable between
// commits but smaller than the workload's own.
const ladderBlocks = 128

// quickDiv shrinks every rung's call count (and the ladder device) for
// -quick smoke runs.
const quickDiv = 8

// ladderChunks: a rung's host time is the median over this many
// consecutive chunks of its calls, so a collector cycle or a burst of
// first-touch page faults in one chunk does not set the figure.
const ladderChunks = 5

// work is lower-layer activity per call (ladder) or per op (workload).
type work struct {
	prog, read, erase    float64 // nand
	ftlWrite, ftlBarrier float64 // plain write and barrier commands reaching the base FTL
	txWrite, xCommit     float64 // core
	snapRead             float64
	cmds                 float64 // storage / ncq
	fsWrite, fsRead      float64 // simfs
	fsync                float64
}

// workBetween turns two counter snapshots into work per n calls.
func workBetween(a, b layerCounters, n float64) work {
	w := work{
		prog:     float64(b.flash.PageWrites-a.flash.PageWrites) / n,
		read:     float64(b.flash.PageReads-a.flash.PageReads) / n,
		erase:    float64(b.flash.BlockErases-a.flash.BlockErases) / n,
		txWrite:  float64(b.core.TxWrites-a.core.TxWrites) / n,
		xCommit:  float64(b.core.Commits-a.core.Commits) / n,
		snapRead: float64(b.core.SnapReads-a.core.SnapReads) / n,
		cmds:     float64(b.cmds-a.cmds) / n,
		fsWrite:  float64(b.host.TotalWrites()-a.host.TotalWrites()) / n,
		fsRead:   float64(b.host.Reads-a.host.Reads) / n,
		fsync:    float64(b.host.Fsyncs-a.host.Fsyncs) / n,
	}
	w.ftlWrite = float64(b.ncqWrites-a.ncqWrites)/n - w.txWrite
	fates := float64(b.core.Commits+b.core.Aborts+b.core.Prepares-a.core.Commits-a.core.Aborts-a.core.Prepares) / n
	w.ftlBarrier = float64(b.ncqBarriers-a.ncqBarriers)/n - fates
	return w
}

func (w *work) accumulate(o work) {
	w.prog += o.prog
	w.read += o.read
	w.erase += o.erase
	w.ftlWrite += o.ftlWrite
	w.ftlBarrier += o.ftlBarrier
	w.txWrite += o.txWrite
	w.xCommit += o.xCommit
	w.snapRead += o.snapRead
	w.cmds += o.cmds
	w.fsWrite += o.fsWrite
	w.fsRead += o.fsRead
	w.fsync += o.fsync
}

func flashWork(a, b metrics.FlashSnapshot, n int) work {
	return work{
		prog:  float64(b.PageWrites-a.PageWrites) / float64(n),
		read:  float64(b.PageReads-a.PageReads) / float64(n),
		erase: float64(b.BlockErases-a.BlockErases) / float64(n),
	}
}

type rung struct {
	hop
	work work
}

// ladder is the set of rungs one workload's layers need.
type ladder struct {
	prof  storage.Profile
	xmode bool // the workload runs the X-FTL firmware
	// fsPages is how many file pages the workload's file system holds;
	// ladder file systems carry a sparse file of that size, because
	// simfs's commit point copies every inode's page list.
	fsPages int64
	rungs   map[string]rung
	rng     *rand.Rand
	div     int // 1, or quickDiv for smoke runs
}

// calls scales a rung's call count for smoke runs.
func (l *ladder) calls(n int) int { return max(n/l.div, ladderChunks) }

// measure times n back-to-back calls of body. Allocation is the
// process-wide malloc count: the ladder runs alone.
func measure(n int, clock *simclock.Clock, body func(i int)) hop {
	var m0, m1 runtime.MemStats
	var v0 time.Duration
	if clock != nil {
		v0 = clock.Now()
	}
	runtime.ReadMemStats(&m0)
	per := make([]float64, 0, ladderChunks)
	for c, i := 0, 0; c < ladderChunks; c++ {
		start, end := i, n*(c+1)/ladderChunks
		t0 := time.Now()
		for ; i < end; i++ {
			body(i)
		}
		if end > start {
			per = append(per, float64(time.Since(t0))/float64(end-start))
		}
	}
	runtime.ReadMemStats(&m1)
	h := hop{ns: median(per), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n)}
	if clock != nil {
		h.virtUs = float64((clock.Now() - v0).Microseconds()) / float64(n)
	}
	return h
}

// stopwatch times calls that alternate with untimed work (a commit
// between the writes that feed it): the caller brackets each call.
type stopwatch struct {
	clock  *simclock.Clock
	ac     allocCounter
	ns     []float64 // per call
	allocs uint64
	virt   time.Duration
	t0     time.Time
	a0     uint64
	v0     time.Duration
}

func (s *stopwatch) start() {
	if s.clock != nil {
		s.v0 = s.clock.Now()
	}
	s.a0 = s.ac.read()
	s.t0 = time.Now()
}

func (s *stopwatch) stop() {
	s.ns = append(s.ns, float64(time.Since(s.t0)))
	s.allocs += s.ac.read() - s.a0
	if s.clock != nil {
		s.virt += s.clock.Now() - s.v0
	}
}

func (s *stopwatch) hop() hop {
	per := make([]float64, 0, ladderChunks)
	for c := 0; c < ladderChunks; c++ {
		chunk := s.ns[len(s.ns)*c/ladderChunks : len(s.ns)*(c+1)/ladderChunks]
		var sum float64
		for _, v := range chunk {
			sum += v
		}
		if len(chunk) > 0 {
			per = append(per, sum/float64(len(chunk)))
		}
	}
	n := float64(len(s.ns))
	return hop{ns: median(per), allocs: float64(s.allocs) / n, virtUs: float64(s.virt.Microseconds()) / n}
}

func runLadder(wl *workload, e env, fsPages int64) (*ladder, error) {
	l := &ladder{
		prof:    ladderProfile(wl),
		xmode:   wl.drives("core"),
		fsPages: fsPages,
		rungs:   map[string]rung{},
		rng:     rand.New(rand.NewSource(e.seed)),
		div:     1,
	}
	if e.quick {
		l.div = quickDiv
		l.prof.Nand.Blocks /= 2
	}
	steps := []struct {
		layer string
		run   func() error
	}{
		{"nand", l.nandRungs},
		{"ftl", l.ftlRungs},
		{"core", l.coreRungs},
		{"ncq", l.ncqRungs},
		{"simfs", l.simfsRungs},
		{"pager", l.pagerRungs},
		{"sqlparse", l.parseRungs},
		{"sqlite", l.sqliteRungs},
		{"mvcc", l.mvccRungs},
		{"server", l.serverRungs},
	}
	for _, s := range steps {
		if !wl.drives(s.layer) || (s.layer == "sqlite" && wl.sqlSpans) {
			continue
		}
		if err := s.run(); err != nil {
			return nil, fmt.Errorf("ladder %s: %w", s.layer, err)
		}
		// Each rung's stack is garbage once measured; collect it so one
		// rung's heap does not tax the next one's allocation.
		runtime.GC()
	}
	return l, nil
}

// ladderProfile is the workload's device geometry at ladder size.
func ladderProfile(wl *workload) storage.Profile {
	prof := storage.OpenSSD()
	if !wl.sqlSpans {
		prof = wideProfile()
	}
	prof.Nand.Blocks = ladderBlocks
	return prof
}

func (l *ladder) page() []byte {
	p := make([]byte, l.prof.Nand.PageSize)
	l.rng.Read(p)
	return p
}

// firstErr keeps the first error a rung's timed body hits.
type firstErr struct{ err error }

func (f *firstErr) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// nandRungs: page program, page read, block erase on a bare chip.
func (l *ladder) nandRungs() error {
	cfg := l.prof.Nand
	chip, err := nand.New(cfg, simclock.New(), &metrics.FlashCounters{})
	if err != nil {
		return err
	}
	blocks := l.calls(40)
	n := blocks * cfg.PagesPerBlock
	data, buf := l.page(), make([]byte, cfg.PageSize)
	var fe firstErr
	l.rungs["nand.program"] = rung{hop: measure(n, nil, func(i int) { fe.note(chip.ProgramPage(nand.PPN(i), data)) })}
	l.rungs["nand.read"] = rung{hop: measure(n, nil, func(int) { fe.note(chip.ReadPage(nand.PPN(l.rng.Intn(n)), buf)) })}
	for i := 0; i < n; i++ {
		fe.note(chip.Invalidate(nand.PPN(i)))
	}
	l.rungs["nand.erase"] = rung{hop: measure(blocks, nil, func(i int) {
		fe.note(chip.EraseBlock(chip.BlockOf(nand.PPN(i * cfg.PagesPerBlock))))
	})}
	return fe.err
}

// agedFTL builds a bare FTL and overwrites it to GC steady state.
func (l *ladder) agedFTL() (*ftl.FTL, *metrics.FlashCounters, *simclock.Clock, error) {
	clk, flash := simclock.New(), &metrics.FlashCounters{}
	chip, err := nand.New(l.prof.Nand, clk, flash)
	if err != nil {
		return nil, nil, nil, err
	}
	f, err := ftl.New(chip, ftl.DefaultConfig(l.prof.Nand), flash)
	if err != nil {
		return nil, nil, nil, err
	}
	data, pages := l.page(), f.LogicalPages()
	for i := int64(0); i < 2*pages; i++ {
		lpn := i
		if i >= pages {
			lpn = l.rng.Int63n(pages)
		}
		if err := f.Write(ftl.LPN(lpn), data); err != nil {
			return nil, nil, nil, err
		}
	}
	return f, flash, clk, nil
}

// ftlRungs: a random page overwrite at GC steady state, and a barrier
// after every eight of them.
func (l *ladder) ftlRungs() error {
	f, flash, clk, err := l.agedFTL()
	if err != nil {
		return err
	}
	n, barriers := l.calls(4096), l.calls(60)
	data, pages := l.page(), f.LogicalPages()
	var fe firstErr
	f0 := flash.Snapshot()
	h := measure(n, clk, func(int) { fe.note(f.Write(ftl.LPN(l.rng.Int63n(pages)), data)) })
	l.rungs["ftl.write"] = rung{hop: h, work: flashWork(f0, flash.Snapshot(), n)}

	sw := stopwatch{clock: clk}
	var bw work
	for i := 0; i < barriers && fe.err == nil; i++ {
		for j := 0; j < mtCommitEvery; j++ {
			fe.note(f.Write(ftl.LPN(l.rng.Int63n(pages)), data))
		}
		f0 = flash.Snapshot()
		sw.start()
		err := f.Barrier()
		sw.stop()
		fe.note(err)
		bw.accumulate(flashWork(f0, flash.Snapshot(), barriers))
	}
	l.rungs["ftl.barrier"] = rung{hop: sw.hop(), work: bw}
	return fe.err
}

// coreRungs: write(t,p), commit(t) after every eight, and a read
// through a snapshot handle, on X-FTL over an aged base FTL.
func (l *ladder) coreRungs() error {
	f, flash, clk, err := l.agedFTL()
	if err != nil {
		return err
	}
	x, err := core.New(f, core.DefaultConfig(), flash)
	if err != nil {
		return err
	}
	txns := l.calls(250)
	data, buf, pages := l.page(), make([]byte, l.prof.Nand.PageSize), f.LogicalPages()
	wr, cm := stopwatch{clock: clk}, stopwatch{clock: clk}
	var ww, cw work
	for t := 1; t <= txns; t++ {
		for j := 0; j < mtCommitEvery; j++ {
			f0 := flash.Snapshot()
			wr.start()
			err := x.WriteTx(core.TxID(t), ftl.LPN(l.rng.Int63n(pages)), data)
			wr.stop()
			if err != nil {
				return err
			}
			ww.accumulate(flashWork(f0, flash.Snapshot(), txns*mtCommitEvery))
		}
		f0 := flash.Snapshot()
		cm.start()
		err := x.Commit(core.TxID(t))
		cm.stop()
		if err != nil {
			return err
		}
		cw.accumulate(flashWork(f0, flash.Snapshot(), txns))
	}
	l.rungs["core.write_tx"] = rung{hop: wr.hop(), work: ww}
	l.rungs["core.commit"] = rung{hop: cm.hop(), work: cw}

	snap, err := x.OpenSnapshot()
	if err != nil {
		return err
	}
	n := l.calls(4096)
	var fe firstErr
	f0 := flash.Snapshot()
	h := measure(n, clk, func(int) { fe.note(x.SnapshotRead(snap, ftl.LPN(l.rng.Int63n(pages)), buf)) })
	l.rungs["core.snap_read"] = rung{hop: h, work: flashWork(f0, flash.Snapshot(), n)}
	fe.note(x.CloseSnapshot(snap))
	return fe.err
}

// ncqRungs: Submit into a queue whose executor does nothing, so the hop
// is the queue's own bookkeeping (slot gating, per-LPN ordering,
// histograms) at the workload's depth.
func (l *ladder) ncqRungs() error {
	clk := simclock.New()
	q := ncq.New(clk, ncq.NewScheduler(clk, l.prof.Nand.Units()), mtDepth, func(*ncq.Request) error { return nil })
	var fe firstErr
	var req ncq.Request
	l.rungs["ncq.submit"] = rung{hop: measure(l.calls(200000), nil, func(i int) {
		req = ncq.Request{Op: ncq.OpWrite, LPN: int64(i & 8191)}
		fe.note(q.Submit(&req))
	})}
	return fe.err
}

// ladderStack is a whole stack at ladder size in the workload's mode,
// its file system loaded with as many file pages as the workload's.
func (l *ladder) ladderStack(cacheSize int) (*xftl.Stack, error) {
	mode := xftl.ModeWAL
	if l.xmode {
		mode = xftl.ModeXFTL
	}
	st, err := xftl.NewStackDevice(l.prof, mode, storage.Options{QueueDepth: mtDepth}, xftl.StackOptions{CacheSize: cacheSize})
	if err != nil || l.fsPages == 0 {
		return st, err
	}
	f, err := st.FS.Create("ballast.dat", simfs.RoleOther)
	if err != nil {
		return nil, err
	}
	if err := f.WritePage(l.fsPages-1, l.page()); err != nil {
		return nil, err
	}
	return st, f.Fsync()
}

// simfsRungs: WritePage into the write-back cache, Fsync of eight dirty
// pages, and ReadPage from the device.
func (l *ladder) simfsRungs() error {
	st, err := l.ladderStack(0)
	if err != nil {
		return err
	}
	defer st.Close()
	f, err := st.FS.Create("ladder.dat", simfs.RoleData)
	if err != nil {
		return err
	}
	const filePages = 2048
	rounds := l.calls(250)
	data, buf := l.page(), make([]byte, st.FS.PageSize())
	for i := int64(0); i < filePages; i++ {
		if err := f.WritePage(i, data); err != nil {
			return err
		}
		if i%64 == 63 {
			if err := f.Fsync(); err != nil {
				return err
			}
		}
	}
	wr, fs := stopwatch{clock: st.Clock}, stopwatch{clock: st.Clock}
	var ww, fw work
	for r := 0; r < rounds; r++ {
		c0 := stackCounters(st)
		for j := 0; j < mtCommitEvery; j++ {
			wr.start()
			err := f.WritePage(l.rng.Int63n(filePages), data)
			wr.stop()
			if err != nil {
				return err
			}
		}
		c1 := stackCounters(st)
		fs.start()
		err := f.Fsync()
		fs.stop()
		if err != nil {
			return err
		}
		st.Device.Queue().Drain()
		ww.accumulate(workBetween(c0, c1, float64(rounds*mtCommitEvery)))
		fw.accumulate(workBetween(c1, stackCounters(st), float64(rounds)))
	}
	// A rung's own calls are not its lower-layer work.
	ww.fsWrite, fw.fsWrite, fw.fsync = 0, 0, 0
	l.rungs["simfs.write_page"] = rung{hop: wr.hop(), work: ww}
	l.rungs["simfs.fsync"] = rung{hop: fs.hop(), work: fw}

	n := l.calls(4096)
	var fe firstErr
	c0 := stackCounters(st)
	h := measure(n, st.Clock, func(int) { fe.note(f.ReadPage(l.rng.Int63n(filePages), buf)) })
	rw := workBetween(c0, stackCounters(st), float64(n))
	rw.fsRead = 0
	l.rungs["simfs.read_page"] = rung{hop: h, work: rw}
	return fe.err
}

// pagerRungs: Get on a cached page, Get on an evicted one, and the
// commit of a five-page transaction; then the B-tree's seek and insert
// over the same pager.
func (l *ladder) pagerRungs() error {
	st, err := l.ladderStack(0)
	if err != nil {
		return err
	}
	defer st.Close()
	mode := pager.WAL
	if l.xmode {
		mode = pager.Off
	}
	const cache, filePages = 64, 512
	p, err := pager.Open(st.FS, "ladder.db", pager.Config{Mode: mode, CacheSize: cache})
	if err != nil {
		return err
	}
	defer p.Close()
	for base := 0; base < filePages; base += 32 {
		if err := p.Begin(); err != nil {
			return err
		}
		for i := 0; i < 32; i++ {
			pg, err := p.Allocate()
			if err != nil {
				return err
			}
			pg.Release()
		}
		if err := p.Commit(); err != nil {
			return err
		}
	}
	var fe firstErr
	get := func(pgno pager.Pgno) {
		pg, err := p.Get(pgno)
		if err != nil {
			fe.note(err)
			return
		}
		pg.Release()
	}
	get(2)
	l.rungs["pager.get_hit"] = rung{hop: measure(l.calls(200000), nil, func(int) { get(2) })}
	// Cycling through more pages than the cache holds misses every time
	// under the pager's clock eviction.
	l.rungs["pager.get_miss"] = rung{hop: measure(l.calls(4096), nil, func(i int) { get(pager.Pgno(2 + i%(filePages-2))) })}
	if fe.err != nil {
		return fe.err
	}

	cm := stopwatch{}
	for t, txns := 0, l.calls(125); t < txns; t++ {
		if err := p.Begin(); err != nil {
			return err
		}
		for j := 0; j < synthUpdatesPerTxn; j++ {
			pg, err := p.Get(pager.Pgno(2 + l.rng.Intn(filePages-2)))
			if err != nil {
				return err
			}
			err = p.Write(pg)
			pg.Release()
			if err != nil {
				return err
			}
		}
		cm.start()
		err := p.Commit()
		cm.stop()
		if err != nil {
			return err
		}
	}
	l.rungs["pager.commit"] = rung{hop: cm.hop()}
	return l.btreeRungs(p)
}

func (l *ladder) btreeRungs(p *pager.Pager) error {
	if err := p.Begin(); err != nil {
		return err
	}
	root, err := btree.CreateTable(p)
	if err != nil {
		return err
	}
	if err := p.Commit(); err != nil {
		return err
	}
	t := btree.OpenTable(p, root)
	payload := []byte(strings.Repeat("x", 150))
	const perTxn = 100
	rows := l.calls(4000) / perTxn * perTxn
	ins := stopwatch{}
	for base := 0; base < rows; base += perTxn {
		if err := p.Begin(); err != nil {
			return err
		}
		for k := base; k < base+perTxn; k++ {
			ins.start()
			err := t.Insert(int64(k), payload)
			ins.stop()
			if err != nil {
				return err
			}
		}
		if err := p.Commit(); err != nil {
			return err
		}
	}
	l.rungs["btree.insert"] = rung{hop: ins.hop()}
	var fe firstErr
	l.rungs["btree.seek"] = rung{hop: measure(l.calls(20000), nil, func(int) {
		_, err := t.SeekRowid(int64(l.rng.Intn(rows)))
		fe.note(err)
	})}
	return fe.err
}

const (
	ladderSelect = "SELECT k, v FROM kv WHERE k = ?"
	ladderUpdate = "UPDATE kv SET v = v + 1 WHERE k = ?"
)

// parseRungs: parsing the workload's two statements.
func (l *ladder) parseRungs() error {
	stmts := [2]string{ladderSelect, ladderUpdate}
	var fe firstErr
	l.rungs["sqlparse.parse"] = rung{hop: measure(l.calls(20000), nil, func(i int) {
		_, err := sqlparse.Parse(stmts[i&1])
		fe.note(err)
	})}
	return fe.err
}

// kvTxn is an open write transaction on any of the three surfaces the
// workloads seed through: an embedded connection, an mvcc session, a
// fleet session.
type kvTxn interface {
	Exec(sql string, args ...any) (int64, error)
	Commit() error
	Rollback() error
}

// seedKV creates and fills the kv table of the concurrent workloads,
// in transactions small enough for the 500-entry X-L2P table.
func seedKV(rows int, begin func() (kvTxn, error)) error {
	pad := strings.Repeat("x", 128)
	for base := 0; base < rows; base += serveSeedTxn {
		tx, err := begin()
		if err != nil {
			return err
		}
		if base == 0 {
			_, err = tx.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER, pad TEXT)")
		}
		for k := base; k < min(base+serveSeedTxn, rows) && err == nil; k++ {
			_, err = tx.Exec("INSERT INTO kv (k, v, pad) VALUES (?, 0, ?)", int64(k), pad)
		}
		if err != nil {
			_ = tx.Rollback()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// sqliteRungs: BEGIN, point SELECT, point UPDATE and COMMIT on an
// embedded connection with the workload's schema and cache size. The
// synth workloads take these from their own spans instead.
func (l *ladder) sqliteRungs() error {
	st, err := l.ladderStack(wrCacheSize)
	if err != nil {
		return err
	}
	defer st.Close()
	db, err := st.OpenDB("ladder.db")
	if err != nil {
		return err
	}
	defer db.Close()
	rows := l.calls(wrRows)
	if err := seedKV(rows, func() (kvTxn, error) { return db, db.Begin() }); err != nil {
		return err
	}
	var sw [numSpanKinds]stopwatch
	var ws [numSpanKinds]work
	timed := func(k spanKind, calls int, fn func() error) error {
		c0 := stackCounters(st)
		sw[k].start()
		err := fn()
		sw[k].stop()
		st.Device.Queue().Drain()
		ws[k].accumulate(workBetween(c0, stackCounters(st), float64(calls)))
		return err
	}
	txns := l.calls(200)
	for t := 0; t < txns; t++ {
		if err := timed(spBegin, txns, db.Begin); err != nil {
			return err
		}
		for u := 0; u < wrUpdatesPerTxn; u++ {
			key := int64(l.rng.Intn(rows))
			if err := timed(spSelect, txns*wrUpdatesPerTxn, func() error { _, err := db.Query(ladderSelect, key); return err }); err != nil {
				return err
			}
			if err := timed(spUpdate, txns*wrUpdatesPerTxn, func() error { _, err := db.Exec(ladderUpdate, key); return err }); err != nil {
				return err
			}
		}
		if err := timed(spCommit, txns, db.Commit); err != nil {
			return err
		}
	}
	for k, name := range map[spanKind]string{spBegin: "sqlite.begin", spSelect: "sqlite.select", spUpdate: "sqlite.update", spCommit: "sqlite.commit"} {
		l.rungs[name] = rung{hop: sw[k].hop(), work: ws[k]}
	}
	return nil
}

// mvccRungs: an uncontended read-session begin served by the warm pool,
// a write-session begin, and a one-update commit.
func (l *ladder) mvccRungs() error {
	st, err := l.ladderStack(wrCacheSize)
	if err != nil {
		return err
	}
	defer st.Close()
	mgr, err := mvcc.NewManager(st.FS, "ladder.db", mvcc.Options{
		Mode: mvcc.MVCC, Journal: pager.Off, CacheSize: wrCacheSize, Pipelined: true, PoolCapacity: 8,
	})
	if err != nil {
		return err
	}
	defer mgr.Close()
	rows, n := l.calls(wrRows), l.calls(200)
	if err := seedKV(rows, func() (kvTxn, error) { return mgr.Begin(false) }); err != nil {
		return err
	}
	rd, wr, cm := stopwatch{}, stopwatch{}, stopwatch{}
	var rw, ww, cw work
	for i := 0; i < n; i++ {
		key := int64(l.rng.Intn(rows))
		// The first reader after a commit cold-opens a connection and
		// parks it; the timed one is the common case, a warm checkout.
		cold, err := mgr.Begin(true)
		if err != nil {
			return err
		}
		if err := cold.Rollback(); err != nil {
			return err
		}
		c0 := stackCounters(st)
		rd.start()
		r, err := mgr.Begin(true)
		rd.stop()
		if err != nil {
			return err
		}
		rw.accumulate(workBetween(c0, stackCounters(st), float64(n)))
		if _, err := r.Query(ladderSelect, key); err != nil {
			return err
		}
		if err := r.Rollback(); err != nil {
			return err
		}

		c0 = stackCounters(st)
		wr.start()
		w, err := mgr.Begin(false)
		wr.stop()
		if err != nil {
			return err
		}
		ww.accumulate(workBetween(c0, stackCounters(st), float64(n)))
		if _, err := w.Exec(ladderUpdate, key); err != nil {
			return err
		}
		c0 = stackCounters(st)
		cm.start()
		err = w.Commit()
		cm.stop()
		if err != nil {
			return err
		}
		st.Device.Queue().Drain()
		cw.accumulate(workBetween(c0, stackCounters(st), float64(n)))
	}
	l.rungs["mvcc.begin_read"] = rung{hop: rd.hop(), work: rw}
	l.rungs["mvcc.begin_write"] = rung{hop: wr.hop(), work: ww}
	l.rungs["mvcc.commit"] = rung{hop: cm.hop(), work: cw}
	return nil
}

// serverRungs: a ping round trip — wire, JSON and dispatch, no SQL.
func (l *ladder) serverRungs() error {
	srv, err := server.New(server.Options{})
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	c, err := server.Dial(addr.String())
	if err != nil {
		return err
	}
	defer c.Close()
	var fe firstErr
	l.rungs["server.roundtrip"] = rung{hop: measure(l.calls(20000), nil, func(int) {
		resp, err := c.Ping()
		if err == nil && !resp.OK {
			err = fmt.Errorf("ping: %s", resp.Error)
		}
		fe.note(err)
	})}
	return fe.err
}
