package torture

import (
	"fmt"
	"strings"

	xftl "repro"
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
func fleetCells() []Cell {
	var cells []Cell
	add := func(stage string) {
		cells = append(cells, Cell{"cut=" + stage, func(seed int64) (*Report, error) { return fleetRun(seed, stage) }})
	}
	for i := 0; i < fleetShards; i++ {
		add(fmt.Sprintf("prepared:%d", i))
	}
	add("decision-logged")
	for i := 0; i < fleetShards; i++ {
		add(fmt.Sprintf("committed:%d", i))
	}
	return cells
}

func fleetRun(seed int64, stage string) (*Report, error) {
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

	// Transaction n writes n to every participant; the last is the victim.
	for n := 1; n <= fleetWarmup+1; n++ {
		tid := uint64(n)
		tx, err := f.BeginCross(dbs...)
		if err != nil {
			return nil, err
		}
		for i, db := range dbs {
			if _, err := tx.Exec(db, fmt.Sprintf("UPDATE kv SET v = %d WHERE k = 1", n)); err != nil {
				return nil, err
			}
			m.write(tid, int64(i), int64(n))
		}
		rep.Transactions++
		if n <= fleetWarmup {
			if err := tx.Commit(); err != nil {
				return nil, err
			}
			m.commit(tid)
			rep.Committed++
			continue
		}
		f.SetCrashHook(func(at string) bool {
			if strings.HasPrefix(at, "prepared:") {
				m.prepare(tid)
			} else if at == "decision-logged" {
				m.commit(tid)
			}
			return at == stage
		})
		if err := tx.Commit(); err == nil {
			return nil, fmt.Errorf("commit survived a power cut at %s", stage)
		}
		f.SetCrashHook(nil)
		rep.InDoubt++
		rep.Crashes++
	}

	if err := f.Remount(); err != nil {
		return nil, fmt.Errorf("remount: %w", err)
	}
	rep.Resolved = f.Resolved.Load()
	if id := f.InDoubt(); len(id) != 0 {
		return nil, fmt.Errorf("unresolved in-doubt after remount: %v", id)
	}
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
	_, err = m.recover(0, lookup(got))
	return rep, err
}
