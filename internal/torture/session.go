package torture

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/mvcc"
	"repro/internal/simclock"
	"repro/internal/simfs"
	"repro/internal/sqlite/pager"
	"repro/internal/storage"
)

// sessionRun generates the concurrent-session schedule: one writer
// advancing every row of a table to generation g per transaction while
// sessionReaders read-only sessions race it, with one power cut usually
// landing mid-stream. Keys are rows and a version is a generation, so
// the model's snapshot rule is "never a torn snapshot" — which takes a
// table of several leaf pages to be observable at all.
//
// Two legs share it. The MVCC leg reads through X-FTL snapshots and
// reopens the database after the cut. The pooled leg serves readers from
// the warm connection pool and keeps the SAME manager across the
// remount: the pool's power-cut epoch must invalidate every pre-cut
// connection on the first post-recovery checkout, or a reader is served
// a pre-crash cache.
type sessionRun struct {
	txns   int   // generations the writer tries to commit
	cut    int64 // one power cut 1..cut NAND operations ahead; 0 = none
	pooled bool
}

const (
	sessionReaders = 4
	sessionRows    = 900
	sessionLeaves  = 4    // least leaf pages the table must span
	sessionWarm    = 2    // generations committed before the cut is armed: recovery always has history to keep
	sessionCut     = 1200 // under what 60 generations cost at the least: the cut always lands mid-stream
)

func (s sessionRun) run(seed int64) (*Report, error) {
	opts := mvcc.Options{Mode: mvcc.MVCC, Journal: pager.Off, CacheSize: 32}
	if s.pooled {
		opts.PoolCapacity = sessionReaders
	}
	dev, fsys, mgr, err := sessionStack(opts)
	if err != nil {
		return nil, err
	}
	defer func() { _ = mgr.Close() }() // whichever manager is current
	rep := &Report{}
	m := newModel(false)
	if err := loadKV(mgr, m, sessionRows, sessionLeaves); err != nil {
		return nil, err
	}
	arm := func() {
		if s.cut > 0 {
			dev.PowerCutAfter(1 + rand.New(rand.NewSource(seed*6271)).Int63n(s.cut))
		}
	}
	indoubt, cut, err := race(mgr, m, s.txns, arm, rep)
	if err != nil {
		return rep, err
	}
	before, _ := mgr.PoolStats()
	if !s.pooled {
		_ = mgr.Close()
	}
	if cut != nil {
		if err := crash(cut, fsRig{dev, fsys}, corruption{}); err != nil {
			return rep, err
		}
		rep.Crashes++
	} else {
		dev.PowerCutAfter(0)
	}
	if !s.pooled {
		// Reopening runs the journal mode's recovery.
		reopened, err := mvcc.NewManager(fsys, "kv.db", opts)
		if err != nil {
			return rep, fmt.Errorf("reopen: %w", err)
		}
		mgr = reopened
	}
	got, err := readKV(mgr, nil)
	if err != nil {
		return rep, fmt.Errorf("post-recovery read: %w", err)
	}
	// (Without a cut nothing is in flight: a plain verify.)
	if _, err := m.recover(indoubt, lookup(got)); err != nil {
		return rep, err
	}
	if s.pooled {
		// Every connection parked before the cut is a stale epoch: the first
		// post-recovery checkout must have closed them all. And the pool must
		// come back warm: a second read at the unchanged generation is a hit.
		mid, _ := mgr.PoolStats()
		if n := mid.Invalidations - before.Invalidations; cut != nil && n != int64(before.Idle) {
			return rep, fmt.Errorf("post-cut checkout invalidated %d pooled conns, want %d", n, before.Idle)
		}
		if _, err := readKV(mgr, nil); err != nil {
			return rep, fmt.Errorf("post-recovery warm read: %w", err)
		}
		if after, _ := mgr.PoolStats(); after.Hits <= mid.Hits {
			return rep, fmt.Errorf("pool did not serve a warm hit after recovery: %+v", after)
		}
	}
	return rep, rep.finish(dev)
}

// sessionStack is what the session and group legs run on: the SQL legs'
// transactional device, an X-FTL file system and a session manager over
// kv.db.
func sessionStack(opts mvcc.Options) (*storage.Device, *simfs.FS, *mvcc.Manager, error) {
	dev, err := storage.New(sqlProfile(), simclock.New(), storage.Options{Transactional: true, QueueDepth: 16})
	if err != nil {
		return nil, nil, nil, err
	}
	fsys, err := simfs.New(dev, simfs.OffXFTL, &metrics.HostCounters{})
	if err != nil {
		return nil, nil, nil, err
	}
	mgr, err := mvcc.NewManager(fsys, "kv.db", opts)
	return dev, fsys, mgr, err
}

// loadKV creates the kv table of that many rows at generation 0 and
// requires it, by the pager's own page count, to span so many leaf pages:
// a one-level tree of n >= 2 leaves is its root plus n pages allocated
// after it.
func loadKV(mgr *mvcc.Manager, m *model, rows int64, minLeaves int) error {
	w, err := mgr.Begin(false)
	if err != nil {
		return err
	}
	if _, err := w.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		return err
	}
	empty := w.DB().Pager().NPages()
	for k := int64(0); k < rows; k++ {
		if _, err := w.Exec("INSERT INTO kv (k, v) VALUES (?, 0)", k); err != nil {
			return err
		}
		m.load(k, 0)
	}
	if leaves := int(w.DB().Pager().NPages() - empty); leaves < minLeaves {
		return fmt.Errorf("kv table spans %d leaf pages, want >= %d", leaves, minLeaves)
	}
	return w.Commit()
}

// readKV reads the whole table through one read-only session, calling
// hold (if non-nil) between opening the session and reading.
func readKV(mgr *mvcc.Manager, hold func()) (map[int64]int64, error) {
	s, err := mgr.Begin(true)
	if err != nil {
		return nil, err
	}
	if hold != nil {
		hold()
	}
	res, err := s.Query("SELECT k, v FROM kv")
	if err != nil {
		_ = s.Rollback()
		return nil, err
	}
	got := make(map[int64]int64, res.Len())
	for _, r := range res.Data {
		got[r[0].Int()] = r[1].Int()
	}
	return got, s.Commit()
}

// race runs the writer against the readers until the writer is done or
// power dies; the writer calls arm once sessionWarm generations are in.
// Even-numbered readers hold their session open across the writer's next
// commit before they read, so snapshots provably serve superseded
// versions; odd-numbered ones race the commit itself. It returns the tid
// whose commit the cut interrupted (0 = none), the power-cut error if the
// cut tripped, and the first violation: a non-power fault, or a snapshot
// the model rejects.
func race(mgr *mvcc.Manager, m *model, txns int, arm func(), rep *Report) (indoubt uint64, cut, violation error) {
	var (
		wg      sync.WaitGroup
		commits = make(chan struct{}) // the writer offers one per commit to every reader holding
		first   [2]atomic.Value       // the first power-cut error seen, the first violation
	)
	racing, stop := context.WithCancel(context.Background())
	// fail ends the race on the first error anyone sees.
	fail := func(who string, err error) {
		slot := 1
		if powerLost(err) {
			slot = 0
		}
		first[slot].CompareAndSwap(nil, fmt.Errorf("%s: %w", who, err))
		stop()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop()
		for g := int64(1); g <= int64(txns) && racing.Err() == nil; g++ {
			who := fmt.Sprintf("writer g=%d", g)
			if g == sessionWarm+1 {
				arm()
			}
			s, err := mgr.Begin(false)
			if err != nil {
				fail(who+" begin", err)
				return
			}
			if _, err := s.Exec("UPDATE kv SET v = ?", g); err != nil {
				_ = s.Rollback()
				fail(who+" update", err)
				return
			}
			for k := int64(0); k < sessionRows; k++ {
				m.write(uint64(g), k, g)
			}
			if err := s.Commit(); err != nil {
				// In flight when power died: recovery may land either way.
				if powerLost(err) {
					indoubt = uint64(g)
					rep.InDoubt++
				}
				fail(who+" commit", err)
				return
			}
			m.commit(uint64(g))
			rep.Committed++
			rep.Transactions++
			for i := 0; i < sessionReaders; i++ {
				select {
				case commits <- struct{}{}:
				default:
				}
			}
			// On one processor the writer would otherwise stream to the cut
			// before any reader it just released gets to read.
			runtime.Gosched()
		}
	}()
	for i := 0; i < sessionReaders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hold := func() {
				select {
				case <-commits:
				case <-racing.Done():
				}
			}
			if i%2 == 1 {
				hold = nil
			}
			for racing.Err() == nil {
				// A snapshot is never older than a commit that already returned.
				floor := m.generation()
				got, err := readKV(mgr, hold)
				if err == nil {
					err = m.snapshot(floor, lookup(got))
				}
				if err != nil {
					fail(fmt.Sprintf("reader %d", i), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	cut, _ = first[0].Load().(error)
	violation, _ = first[1].Load().(error)
	return indoubt, cut, violation
}
