package torture

import (
	"errors"
	"fmt"
	"strings"

	xftl "repro"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/shard"
)

const (
	fleetShards = 3
	fleetWarmup = 3 // committed transactions before the victim: recovery must keep history too
)

// fleetCells is one cell per crash point of a fleetShards-participant
// two-phase commit, in protocol order. Each generates the schedule:
// fleetWarmup committed cross-shard transactions, then one more killed by
// a power cut at the cell's stage, then remount. Keys are participants
// and a version is the value the transaction wrote to each, so "applied
// whole or not at all" is atomicity across devices. The model follows
// the protocol through the crash hook: a participant set that is only
// prepared is in doubt, and once the coordinator record on shard 0 is
// durable the transaction is committed — no other outcome is accepted.
//
// The abort=prepare:i cells end the victim live instead: participant i's
// X-L2P table is full under a foreign tid, so the i participants before
// it are prepared and then aborted with the power on. One more
// transaction computes v = v + 1 on the same writer connections.
func fleetCells() []Cell {
	var cells []Cell
	add := func(cut string, failPrepare int) {
		label := "cut=" + cut
		if cut == "" {
			label = fmt.Sprintf("abort=prepare:%d", failPrepare)
		}
		cells = append(cells, Cell{label, func(seed int64) (*Report, error) { return fleetRun(seed, cut, failPrepare) }})
	}
	for i := 0; i < fleetShards; i++ {
		add(fmt.Sprintf("prepared:%d", i), 0)
	}
	add("decision-logged", 0)
	for i := 0; i < fleetShards; i++ {
		add(fmt.Sprintf("committed:%d", i), 0)
	}
	for i := 1; i < fleetShards; i++ {
		add("", i)
	}
	return cells
}

// fleetRun's victim dies by a power cut at the crash-hook stage cut, or —
// cut empty — live, at the prepare of participant failPrepare.
func fleetRun(seed int64, cut string, failPrepare int) (*Report, error) {
	rep := &Report{}
	m := newModel(false)
	f, err := shard.New(shard.Options{Shards: fleetShards, Profile: xftl.OpenSSD(), Mode: xftl.ModeXFTL})
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()

	// One database per shard, probing names off the seed: name→shard layouts vary.
	var dbs []string
	taken := make(map[int]bool)
	for i := 0; len(dbs) < fleetShards; i++ {
		db := fmt.Sprintf("t%d-%d.db", seed, i)
		if s := f.Route(db); !taken[s] {
			taken[s] = true
			dbs = append(dbs, db)
		}
	}
	for i, db := range dbs {
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
		m.load(int64(i), 0)
	}
	// update opens transaction tid: set, with arg bound to its parameter,
	// writes version to every participant.
	update := func(tid uint64, set string, arg, version int64) (*shard.Tx, error) {
		tx, err := f.BeginCross(dbs...)
		if err != nil {
			return nil, err
		}
		for i, db := range dbs {
			if _, err := tx.Exec(db, "UPDATE kv SET v = "+set+" WHERE k = 1", arg); err != nil {
				return nil, err
			}
			m.write(tid, int64(i), version)
		}
		rep.Transactions++
		return tx, nil
	}
	readBack := func() (observe, error) {
		got := make(map[int64]int64, len(dbs))
		for i, db := range dbs {
			s, err := f.Begin(db, true)
			if err != nil {
				return nil, err
			}
			row, ok, err := s.QueryRow("SELECT v FROM kv WHERE k = 1")
			if err != nil || !ok {
				_ = s.Rollback()
				return nil, fmt.Errorf("%s: read back: %v", db, err)
			}
			got[int64(i)] = row[0].Int()
			if err := s.Commit(); err != nil {
				return nil, err
			}
		}
		return lookup(got), nil
	}

	// commit runs update to its end.
	commit := func(tid uint64, set string, arg, version int64) error {
		tx, err := update(tid, set, arg, version)
		if err == nil {
			err = tx.Commit()
		}
		if err == nil {
			m.commit(tid)
			rep.Committed++
		}
		return err
	}

	// Transaction n writes n to every participant; the last is the victim.
	const last = fleetWarmup + 1
	for n := 1; n <= fleetWarmup; n++ {
		if err := commit(uint64(n), "?", int64(n), int64(n)); err != nil {
			return nil, err
		}
	}
	tx, err := update(last, "?", last, last)
	if err != nil {
		return nil, err
	}
	if cut == "" {
		// Participants prepare in shard order: fill the failing one's table.
		dev := f.Stacks()[failPrepare].Device
		x, page := dev.XFTL(), make([]byte, dev.PageSize())
		const foreign = 1 << 40
		dev.Queue().Exclusive(func() {
			for lpn := ftl.LPN(dev.LogicalPages() - 1); x.WriteTx(foreign, lpn, page) == nil; lpn-- {
			}
		})
		if err := tx.Commit(); !errors.Is(err, core.ErrTableFull) {
			return nil, fmt.Errorf("commit with participant %d's X-L2P table full: %v, want ErrTableFull", failPrepare, err)
		}
		dev.Queue().Exclusive(func() { err = x.Abort(foreign) })
		if err != nil {
			return nil, err
		}
		m.abort(last)
		rep.Aborted++
		// On top of the committed fleetWarmup that is last — and last + 1
		// wherever the victim's write is still to be found.
		if err := commit(last+1, "v + ?", 1, last); err != nil {
			return nil, fmt.Errorf("after the live abort: %w", err)
		}
		o, err := readBack()
		if err != nil {
			return nil, err
		}
		return rep, m.verify(o)
	}
	f.SetCrashHook(func(at string) bool {
		if strings.HasPrefix(at, "prepared:") {
			m.prepare(last)
		} else if at == "decision-logged" {
			m.commit(last)
		}
		return at == cut
	})
	if err := tx.Commit(); err == nil {
		return nil, fmt.Errorf("commit survived a power cut at %s", cut)
	}
	f.SetCrashHook(nil)
	rep.InDoubt++
	rep.Crashes++

	if err := f.Remount(); err != nil {
		return nil, fmt.Errorf("remount: %w", err)
	}
	rep.Resolved = f.Resolved.Load()
	if id := f.InDoubt(); len(id) != 0 {
		return nil, fmt.Errorf("unresolved in-doubt after remount: %v", id)
	}
	o, err := readBack()
	if err != nil {
		return nil, err
	}
	_, err = m.recover(0, o)
	return rep, err
}
