package torture

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/mvcc"
	"repro/internal/sqlite/pager"
)

// groupRun generates the group-commit schedule: a few writers committing
// through one mvcc.Manager at once, so that their transactions ride
// shared commit(t)s, with member rollbacks and one page-stealing writer
// mixed in — a steal commits the deferred predecessors first, closing
// their group early — and one power cut aimed into a shared flush: armed where a
// writer with deferred predecessors and nobody queued behind it enters
// Commit, 1..n NAND operations ahead, n being what the last such flush
// cost. Keys are rows; a version is the transaction's place in lock order.
//
// The model sees a group as one tid — the device's view too. A writer
// about to commit still holds the writer lock, and the manager's
// group-commit counter only moves on the lock holder's goroutine, so its
// value there names the open group: every member of one group reads the
// same value, every later group a larger one, and the members' writes
// union under that tid in lock order. The first member acknowledged
// commits the tid (and any earlier one still open) in the model, so an
// acknowledged member the recovered state lacks is a lost commit, and a
// group whose flush the cut interrupted is in doubt as a whole.
type groupRun struct {
	writers int
	txns    int  // per writer
	cut     bool // one power cut, aimed into a shared flush
}

const (
	groupRows    = 3800 // a table of well over groupCache pages
	groupCache   = 8
	groupUpdates = 3  // rows a plain member updates
	groupWarm    = 4  // shared flushes completed before the cut is armed
	groupEvery   = 7  // every groupEvery-th transaction rolls back; writer 0's next one steals
	groupQueue   = 50 // yields a writer grants the others to queue behind it before it commits
)

func (g groupRun) run(seed int64) (*Report, error) {
	opts := mvcc.Options{Mode: mvcc.MVCC, Journal: pager.Off, CacheSize: groupCache, Pipelined: true}
	dev, fsys, mgr, err := sessionStack(opts)
	if err != nil {
		return nil, err
	}
	defer func() { _ = mgr.Close() }() // whichever manager is current
	rep := &Report{}
	m := newModel(false)
	if err := loadKV(mgr, m, groupRows, 2*groupCache); err != nil {
		return nil, err
	}

	var (
		mu       sync.Mutex          // everything below
		seq      int64               // transactions begun, in lock order: the version source
		members  = map[uint64]int{}  // model tid -> members that entered Commit
		settled  = map[uint64]bool{} // model tids a member was acknowledged for
		flushes  int                 // shared flushes completed
		flushOps int64               // NAND operations the last one cost
		armed    = !g.cut            // the one cut is spent
		indoubt  uint64              // the group whose flush power died in
		cut      error               // the power-cut error, once seen
		fault    error               // the first other error
		rng      = rand.New(rand.NewSource(seed * 7919))
		wg       sync.WaitGroup
		waiting  atomic.Int32 // writers inside Begin
		stopping = func() bool { mu.Lock(); defer mu.Unlock(); return cut != nil || fault != nil }
		fail     = func(who string, err error) {
			mu.Lock()
			defer mu.Unlock()
			if err = fmt.Errorf("%s: %w", who, err); powerLost(err) {
				cut = cmp.Or(cut, err)
			} else {
				fault = cmp.Or(fault, err)
			}
		}
	)
	for w := 0; w < g.writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; n <= g.txns && !stopping(); n++ {
				who := fmt.Sprintf("writer %d txn %d", w, n)
				waiting.Add(1)
				s, err := mgr.Begin(false)
				waiting.Add(-1)
				if err != nil {
					fail(who+" begin", err)
					return
				}
				mu.Lock()
				seq++
				version := seq
				keys := rng.Perm(groupRows)[:groupUpdates]
				// Writer 0 steals every groupEvery-th transaction, and every
				// one until a steal has closed a pending group: whether its
				// predecessor deferred to it is the scheduler's to decide.
				steals := w == 0 && (n%groupEvery == 1 || rep.Steals == 0)
				mu.Unlock()
				if steals {
					// Every leaf page dirty, in a cache that holds a few.
					keys = keys[:0]
					for k := 0; k < groupRows; k++ {
						keys = append(keys, k)
					}
					groups := mgr.Stats.GroupCommits.Load()
					_, err = s.Exec("UPDATE kv SET v = ?", version)
					// Only the lock holder settles a group: one settled
					// during the update is the pending one, closed by a steal.
					if mgr.Stats.GroupCommits.Load() != groups {
						mu.Lock()
						rep.Steals++
						mu.Unlock()
					}
				} else {
					for _, k := range keys {
						if _, err = s.Exec("UPDATE kv SET v = ? WHERE k = ?", version, int64(k)); err != nil {
							break
						}
					}
				}
				if err != nil || n%groupEvery == 0 {
					// A member's rollback commits its deferred predecessors
					// and takes back itself alone.
					if rerr := s.Rollback(); err == nil {
						err = rerr
					}
					if err != nil {
						fail(who, err)
						return
					}
					mu.Lock()
					rep.Aborted++
					mu.Unlock()
					continue
				}
				// Let the others queue up, so there is a group to join.
				for i := 0; i < groupQueue && waiting.Load() == 0; i++ {
					runtime.Gosched()
				}
				closes := waiting.Load() == 0 // nobody to defer to
				tid := uint64(mgr.Stats.GroupCommits.Load()) + 1
				mu.Lock()
				rep.Transactions++
				for _, k := range keys {
					m.write(tid, int64(k), version)
				}
				members[tid]++
				shared := closes && members[tid] > 1
				if shared && !armed && flushes >= groupWarm {
					armed = true
					dev.PowerCutAfter(1 + rng.Int63n(flushOps))
				}
				mu.Unlock()
				before := dev.NANDOps()
				err = s.Commit()
				mu.Lock()
				switch {
				case err != nil && powerLost(err):
					// Every member of the interrupted group reports it, and so
					// does whoever reached Commit with the power already gone:
					// the earliest is the one whose flush it died in.
					if indoubt == 0 || tid < indoubt {
						indoubt = tid
					}
				case err == nil:
					// Groups commit in tid order, whichever member's
					// goroutine gets to say so first: an acknowledged group
					// settles every earlier one with it.
					for _, t := range sortedKeys(members) {
						if t > tid || settled[t] {
							continue
						}
						settled[t] = true
						m.commit(t)
						rep.Committed += members[t]
						if members[t] > 1 {
							rep.Groups++
						}
					}
				}
				if err == nil && shared {
					flushes++
					flushOps = dev.NANDOps() - before
				}
				mu.Unlock()
				if err != nil {
					fail(who+" commit", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if fault != nil {
		return rep, fault
	}
	_ = mgr.Close()
	if cut != nil {
		if err := crash(cut, fsRig{dev, fsys}, corruption{}); err != nil {
			return rep, err
		}
		rep.Crashes++
		if indoubt != 0 {
			rep.InDoubt++
			if members[indoubt] > 1 {
				rep.GroupCuts++
			}
		}
	} else {
		dev.PowerCutAfter(0)
	}
	if mgr, err = mvcc.NewManager(fsys, "kv.db", opts); err != nil {
		return rep, fmt.Errorf("reopen: %w", err)
	}
	got, err := readKV(mgr, nil)
	if err != nil {
		return rep, fmt.Errorf("post-recovery read: %w", err)
	}
	// (Without a cut nothing is in flight: a plain verify.)
	if _, err := m.recover(indoubt, lookup(got)); err != nil {
		return rep, err
	}
	return rep, rep.finish(dev)
}
