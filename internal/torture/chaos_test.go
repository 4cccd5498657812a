package torture

import (
	"testing"
	"time"
)

// TestChaosSweep is the degraded-mode acceptance sweep: transient
// interface faults, die hangs, command deadlines/retries, channel
// quarantine and mid-storm power cuts, all at once, with the model
// judging after every crash. The plane must be observable end to end —
// faults injected, retries issued, deadlines tripped (Leg.Needs). The
// sweep is deterministic (all randomness seeded, all time virtual), so
// these exact combinations pass or fail reproducibly.
func TestChaosSweep(t *testing.T) {
	l := tableLeg(t, "chaos sweep")
	if len(l.Seeds) != 3 || len(l.Cells) != 4 {
		t.Fatalf("chaos grid is %d seeds x %d cells, want 3 x {0,60} x {quiet,hang}", len(l.Seeds), len(l.Cells))
	}
	rep := runLeg(t, l)
	if want := len(l.Seeds); !testing.Short() && len(rep.Seeds) != want {
		t.Errorf("report records seeds %v, want all %d", rep.Seeds, want)
	}
}

// TestChaosQuarantine drives a sustained one-die error storm hard
// enough to trip quarantine, and requires the run to survive it with
// the contract intact and the episode visible in the counters: a short
// deterministic hang cadence piles read timeouts onto the same die
// inside one health window.
func TestChaosQuarantine(t *testing.T) {
	d := deviceRun{txns: 400, storm: &storm{hangEvery: 5, hangStall: 30 * time.Millisecond}}
	runLeg(t, Leg{
		Name: "quarantine storm", Seeds: []int64{7}, Cells: []Cell{{"hang every 5th txn", d.run}},
		Needs: []string{"timeouts", "quarantines", "committed"},
	})
}
