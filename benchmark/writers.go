package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	xftl "repro"
	"repro/internal/mvcc"
	"repro/internal/sqlite/pager"
	"repro/internal/storage"
	"repro/internal/trace"
)

// writers_mvcc: writer–writer contention through the session layer's
// FIFO ticket lock and the synchronous X-L2P image flush.
const (
	wrWriters       = 2
	wrRows          = 4096
	wrUpdatesPerTxn = 4
	wrCacheSize     = 32
)

type wrInstance struct {
	st        *xftl.Stack
	mgr       *mvcc.Manager
	rngs      [wrWriters]*rand.Rand
	rows      int
	committed atomic.Int64
	writeTx0  int64 // mvcc.Stats.WriteTx when set-up finished
}

func setupWriters(e env) (instance, error) {
	st, err := xftl.NewStackDevice(wideProfile(), xftl.ModeXFTL,
		storage.Options{QueueDepth: mtDepth}, xftl.StackOptions{CacheSize: wrCacheSize})
	if err != nil {
		return nil, err
	}
	mgr, err := mvcc.NewManager(st.FS, "writers.db", mvcc.Options{
		Mode: mvcc.MVCC, Journal: pager.Off, CacheSize: wrCacheSize, Pipelined: true,
	})
	if err != nil {
		return nil, err
	}
	in := &wrInstance{st: st, mgr: mgr, rows: wrRows}
	if e.quick {
		in.rows /= 4
	}
	for i := range in.rngs {
		in.rngs[i] = rand.New(rand.NewSource(e.seed + int64(i)*7919))
	}
	if err := seedKV(in.rows, func() (kvTxn, error) { return mgr.Begin(false) }); err != nil {
		_ = in.close()
		return nil, fmt.Errorf("seed: %w", err)
	}
	in.writeTx0 = mgr.Stats.WriteTx.Load()
	return in, nil
}

func (in *wrInstance) clients() int            { return wrWriters }
func (in *wrInstance) share(n int) []int       { return evenShare(n, wrWriters) }
func (in *wrInstance) device() *storage.Device { return in.st.Device }
func (in *wrInstance) attach(t *trace.Tracer)  { attachStack(in.st, t) }

func (in *wrInstance) counters() layerCounters {
	lc := stackCounters(in.st)
	lc.addManager(in.mgr)
	return lc
}

// op is one write transaction: blocking Begin, 4 random UPDATEs,
// COMMIT. Its virtual latency is the clock delta around it, so it
// includes the time queued behind the other writer.
func (in *wrInstance) op(c int, sp *spans) (time.Duration, error) {
	v0 := in.st.Clock.Now()
	sp.open()
	s, err := in.mgr.Begin(false)
	sp.done(spBegin)
	if err != nil {
		return 0, err
	}
	for u := 0; u < wrUpdatesPerTxn; u++ {
		key := int64(in.rngs[c].Intn(in.rows))
		sp.open()
		n, err := s.Exec("UPDATE kv SET v = v + 1 WHERE k = ?", key)
		sp.done(spUpdate)
		if err != nil || n != 1 {
			_ = s.Rollback()
			return 0, fmt.Errorf("update k=%d: %d rows, %v", key, n, err)
		}
	}
	sp.open()
	err = s.Commit()
	sp.done(spCommit)
	if err != nil {
		return 0, err
	}
	in.committed.Add(1)
	return in.st.Clock.Now() - v0, nil
}

// verify checks the session layer counted exactly the transactions the
// writers saw commit, and that each one's four increments are in the
// table.
func (in *wrInstance) verify() (checks, mismatches int, err error) {
	committed := in.committed.Load()
	if got := in.mgr.Stats.WriteTx.Load() - in.writeTx0; got != committed {
		mismatches++
	}
	s, err := in.mgr.Begin(true)
	if err != nil {
		return 1, mismatches, err
	}
	defer s.Rollback()
	row, ok, err := s.QueryRow("SELECT SUM(v), COUNT(*) FROM kv")
	if err != nil {
		return 1, mismatches, err
	}
	if !ok || row[0].Int() != committed*wrUpdatesPerTxn {
		mismatches++
	}
	if !ok || row[1].Int() != int64(in.rows) {
		mismatches++
	}
	return 3, mismatches, nil
}

func (in *wrInstance) close() error {
	err := in.mgr.Close()
	if cerr := in.st.Close(); err == nil {
		err = cerr
	}
	return err
}
