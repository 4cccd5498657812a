package main

import (
	"fmt"
	"math/rand"
	"time"

	xftl "repro"
	"repro/internal/simfs"
	"repro/internal/sqlite"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload/synth"
)

// The paper's synthetic point (§6.3.1, Table 1): 60,000 partsupp tuples
// of 220 B, transactions of 5 × (SELECT, UPDATE) + COMMIT, on a device
// aged until garbage-collection victims are about half valid.
const (
	synthUpdatesPerTxn = 5
	// agedUtilization is the share of physical pages the exported
	// capacity covers; with greedy GC under uniform overwrites it gives
	// ~50 % victim validity on this simulator (calibrated by the paper
	// reproduction, EXPERIMENTS.md).
	agedUtilization = 0.65
	// reservePages stay free of aging filler for file-system regions,
	// the database, its journals and slack.
	reservePages = 8192
	// steadyVictims is how many GC victims aging cycles through before
	// the device counts as being in steady state.
	steadyVictims = 40
	verifySample  = 1000
)

type synthInstance struct {
	st     *xftl.Stack
	db     *sqlite.DB
	sel    *sqlite.Stmt
	upd    *sqlite.Stmt
	rng    *rand.Rand
	tuples int
	// shadow is the expected ps_supplycost of every key a committed
	// transaction has written; keys holds them in first-write order so
	// the verification sample is a pure function of the seed.
	shadow     map[int]float64
	keys       []int
	pending    [synthUpdatesPerTxn]int
	pendingVal [synthUpdatesPerTxn]float64
	mismatches int
}

// agedStack builds the OpenSSD stack whose exported capacity yields the
// target GC validity, fills it and churns it to GC steady state — the
// paper's "controlled aging of the flash memory chips". The recipe is
// internal/bench's (stackForValidity + AgeDevice), repeated here so the
// suite does not move when that package, which it supersedes, is trimmed.
func agedStack(mode xftl.Mode, e env) (*xftl.Stack, error) {
	prof := storage.OpenSSD()
	if e.quick {
		prof.Nand.Blocks /= 8
	}
	reserve := int64(reservePages)
	if e.quick {
		reserve /= 2
	}
	dataPages := int64(prof.Nand.Blocks-4) * int64(prof.Nand.PagesPerBlock)
	logical := int64(float64(dataPages)*agedUtilization) + reserve
	if lim := int64(float64(dataPages) * 0.97); logical > lim {
		logical = lim
	}
	st, err := xftl.NewStackOptions(prof, mode, xftl.StackOptions{FTLLogicalPages: logical})
	if err != nil {
		return nil, err
	}
	fill := st.Device.LogicalPages() - reserve
	f, err := st.FS.Create("aging-filler.dat", simfs.RoleOther)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	page := make([]byte, st.FS.PageSize())
	rng.Read(page)
	for i := int64(0); i < fill; i++ {
		if err := f.WritePage(i, page); err != nil {
			return nil, fmt.Errorf("aging fill: %w", err)
		}
		if i%256 == 255 {
			if err := f.Fsync(); err != nil {
				return nil, fmt.Errorf("aging fill: %w", err)
			}
		}
	}
	if err := f.Fsync(); err != nil {
		return nil, fmt.Errorf("aging fill: %w", err)
	}
	stats := st.FlashStats()
	limit := 3 * prof.Nand.TotalPages()
	gc0 := stats.GCRuns.Load()
	for i := int64(0); stats.GCRuns.Load()-gc0 < steadyVictims && i < limit; i++ {
		if err := f.WritePage(rng.Int63n(fill), page); err != nil {
			return nil, fmt.Errorf("aging churn: %w", err)
		}
		if i%128 == 127 {
			if err := f.Fsync(); err != nil {
				return nil, fmt.Errorf("aging churn: %w", err)
			}
		}
	}
	if err := f.Fsync(); err != nil {
		return nil, fmt.Errorf("aging churn: %w", err)
	}
	return st, nil
}

func setupSynth(mode xftl.Mode, e env) (instance, error) {
	st, err := agedStack(mode, e)
	if err != nil {
		return nil, err
	}
	db, err := st.OpenDB("synth.db")
	if err != nil {
		return nil, err
	}
	cfg := synth.DefaultConfig()
	cfg.Seed = e.seed
	if e.quick {
		cfg.Tuples = 3000
	}
	if err := synth.Load(db, cfg); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	in := &synthInstance{
		st: st, db: db, tuples: cfg.Tuples,
		rng:    rand.New(rand.NewSource(e.seed + 7)),
		shadow: make(map[int]float64),
	}
	if in.sel, err = db.Prepare(`SELECT ps_supplycost FROM partsupp WHERE ps_partkey = ?`); err != nil {
		return nil, err
	}
	if in.upd, err = db.Prepare(`UPDATE partsupp SET ps_supplycost = ? WHERE ps_partkey = ?`); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *synthInstance) clients() int            { return 1 }
func (in *synthInstance) share(n int) []int       { return []int{n} }
func (in *synthInstance) device() *storage.Device { return in.st.Device }
func (in *synthInstance) attach(t *trace.Tracer)  { attachStack(in.st, t) }

func (in *synthInstance) counters() layerCounters {
	lc := stackCounters(in.st)
	lc.walCheckpoints, _ = in.db.Pager().WALStats()
	return lc
}

// op is one transaction: 5 × (SELECT, UPDATE) on random keys, COMMIT.
func (in *synthInstance) op(_ int, sp *spans) (time.Duration, error) {
	v0 := in.st.Clock.Now()
	sp.open()
	err := in.db.Begin()
	sp.done(spBegin)
	if err != nil {
		return 0, err
	}
	for u := 0; u < synthUpdatesPerTxn; u++ {
		key := in.rng.Intn(in.tuples) + 1
		sp.open()
		rows, err := in.sel.Query(key)
		sp.done(spSelect)
		if err != nil || rows.Len() != 1 {
			_ = in.db.Rollback()
			return 0, fmt.Errorf("select partkey %d: %d rows, %v", key, rowCount(rows), err)
		}
		cost := rows.Data[0][0].Real()
		if want, ok := in.expected(key, u); ok && want != cost {
			in.mismatches++
		}
		sp.open()
		_, err = in.upd.Exec(cost+0.01, key)
		sp.done(spUpdate)
		if err != nil {
			_ = in.db.Rollback()
			return 0, fmt.Errorf("update partkey %d: %w", key, err)
		}
		in.pending[u], in.pendingVal[u] = key, cost+0.01
	}
	sp.open()
	err = in.db.Commit()
	sp.done(spCommit)
	if err != nil {
		return 0, err
	}
	for u, key := range in.pending {
		if _, seen := in.shadow[key]; !seen {
			in.keys = append(in.keys, key)
		}
		in.shadow[key] = in.pendingVal[u]
	}
	return in.st.Clock.Now() - v0, nil
}

// expected is the value a SELECT inside the open transaction must see
// for key: this transaction's own earlier write, else the last
// committed one.
func (in *synthInstance) expected(key, upto int) (float64, bool) {
	for u := upto - 1; u >= 0; u-- {
		if in.pending[u] == key {
			return in.pendingVal[u], true
		}
	}
	v, ok := in.shadow[key]
	return v, ok
}

func rowCount(r *sqlite.Rows) int {
	if r == nil {
		return 0
	}
	return r.Len()
}

// verify re-reads a sample of written keys against the shadow map and
// checks no tuple was lost or duplicated.
func (in *synthInstance) verify() (checks, mismatches int, err error) {
	mismatches = in.mismatches
	rng := rand.New(rand.NewSource(int64(len(in.keys))))
	n := min(verifySample, len(in.keys))
	for i := 0; i < n; i++ {
		key := in.keys[rng.Intn(len(in.keys))]
		rows, err := in.sel.Query(key)
		if err != nil {
			return checks, mismatches, err
		}
		checks++
		if rows.Len() != 1 || rows.Data[0][0].Real() != in.shadow[key] {
			mismatches++
		}
	}
	row, ok, err := in.db.QueryRow(`SELECT COUNT(*) FROM partsupp`)
	if err != nil {
		return checks, mismatches, err
	}
	checks++
	if !ok || row[0].Int() != int64(in.tuples) {
		mismatches++
	}
	return checks, mismatches, nil
}

func (in *synthInstance) close() error {
	err := in.db.Close()
	if cerr := in.st.Close(); err == nil {
		err = cerr
	}
	return err
}
