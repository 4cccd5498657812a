package torture

import "testing"

// TestFleetSweepQuick runs one seed of the fleet 2PC grid: every crash
// stage of a 3-shard cross-shard commit, judged all-or-nothing across
// participants after recovery, with the in-doubt ones resolved from the
// coordinator record; and every prepare that can fail with participants
// already prepared, judged live.
func TestFleetSweepQuick(t *testing.T) {
	l := tableLeg(t, "fleet 2pc")
	if len(l.Cells) != 2*fleetShards+1+fleetShards-1 {
		t.Fatalf("fleet grid has %d cells, want every stage and every live abort of a %d-shard commit", len(l.Cells), fleetShards)
	}
	l.Seeds = l.Seeds[:l.Quick]
	runLeg(t, l)
}
