package torture

import (
	"testing"

	xftl "repro"
	"repro/internal/nand"
)

// tableLeg returns the leg table's row of that name.
func tableLeg(t *testing.T, name string) Leg {
	t.Helper()
	for _, l := range Legs(0) {
		if l.Name == name {
			return l
		}
	}
	t.Fatalf("no leg named %q in the table", name)
	return Leg{}
}

// runLeg runs a leg's grid (the quick one under -short) and fails the
// test on a violation or on a path in Leg.Needs the grid never took.
func runLeg(t *testing.T, l Leg) *Report {
	t.Helper()
	rep, err := Runner{Quick: testing.Short() && l.Quick > 0}.Run(l)
	if err != nil {
		t.Fatalf("%v\n(report %s)", err, rep)
	}
	t.Logf("%s: %s", l.Name, rep)
	return rep
}

// TestDeviceSweep is the acceptance sweep: >= 50 (seed, cut-point,
// fault-rate) combinations at the device command level, with zero
// uncorrectable-error escapes at the default ECC threshold.
func TestDeviceSweep(t *testing.T) {
	l := tableLeg(t, "device sweep")
	if combos := len(l.Seeds) * len(l.Cells); combos < 50 {
		t.Fatalf("sweep covers only %d combos, want >= 50", combos)
	}
	runLeg(t, l)
}

// TestSQLTorture runs the full-stack workload (SQLite -> simfs ->
// device) under injected crashes and faults in all three journal
// modes; each mode's own recovery path — hot-journal playback, WAL
// replay, the image path — must have been taken (Leg.Needs), and over
// the full grid the rollback journal's rarest outcome too: a commit that
// had returned, revoked whole by a resurrected hot journal.
func TestSQLTorture(t *testing.T) {
	for _, mode := range []xftl.Mode{xftl.ModeRollback, xftl.ModeWAL, xftl.ModeXFTL} {
		rep := runLeg(t, tableLeg(t, "sql "+mode.String()))
		if mode == xftl.ModeRollback && !testing.Short() && rep.Revoked == 0 {
			t.Errorf("%s: no commit was ever revoked: %s", mode, rep)
		}
	}
}

// TestSQLTortureCutsOnly isolates the power-cut machinery from the
// fault model: ideal flash, aggressive cut cadence.
func TestSQLTortureCutsOnly(t *testing.T) {
	s := sqlRun{mode: xftl.ModeRollback, cut: 1500}
	runLeg(t, Leg{
		Name: "sql RBJ cuts only", Seeds: []int64{1, 2, 3}, Cells: []Cell{{"cut=1500 scale=0", s.run}},
		Needs: []string{"crashes", "journal"},
	})
}

// TestMetaCorruptionSweep is the self-healing acceptance sweep: after
// every injected power cut, every persisted copy of the mapping table
// (or, separately, the bad-block table) is corrupted or erased, and
// recovery must restore all committed transactions from per-page OOB
// records alone — in the raw device schedule and through SQLite in all
// three journal modes.
func TestMetaCorruptionSweep(t *testing.T) {
	l := tableLeg(t, "meta sweep")
	if len(l.Seeds) != 3 || len(l.Cells) != 2*2*4 {
		t.Fatalf("meta grid is %d seeds x %d cells, want 3 x {map,bbt} x {corrupt,erase} x {device + 3 SQL modes}", len(l.Seeds), len(l.Cells))
	}
	runLeg(t, l)
}

// TestWornOutStopsGracefully drives a device into spare exhaustion
// with an erase-fail-heavy fault model (every failed erase retires a
// block against the 3-block spare reserve) and checks the run ends
// with the typed worn-out signal rather than a violation, with every
// committed page still readable.
func TestWornOutStopsGracefully(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		d := deviceRun{txns: 4000, fault: &nand.FaultModel{Seed: seed, EraseFailProb: 0.05, ECCBits: 8}}
		rep, err := d.run(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.WornOut > 0 {
			if rep.Flash.RetiredBlocks == 0 {
				t.Fatalf("seed %d: worn out with no retirements: %s", seed, rep)
			}
			t.Logf("seed %d wore out after %d txns: %s", seed, rep.Transactions, rep)
			return
		}
	}
	t.Fatal("no seed exhausted the spare reserve with EraseFailProb=0.05")
}
