package torture

import "testing"

// noCut runs a session schedule as a pure concurrency shakeout — no
// power cut, 20 generations, one seed — and requires every generation
// committed: readers never saw a torn snapshot while the writer
// streamed, and the final state is the writer's last generation. Run
// under -race in CI.
func noCut(t *testing.T, s sessionRun) {
	s.txns = 20
	rep := runLeg(t, Leg{Name: "sessions, no cut", Seeds: []int64{1}, Cells: []Cell{{"cut=0", s.run}}})
	if rep.Committed != 20 || rep.Crashes != 0 {
		t.Fatalf("unexpected report: %s", rep)
	}
}

func TestMVCCTortureNoCut(t *testing.T)   { noCut(t, sessionRun{}) }
func TestPooledTortureNoCut(t *testing.T) { noCut(t, sessionRun{pooled: true}) }

// Mid-run power cuts across seeds: after recovery the database must
// read as the last committed or the in-doubt generation, whole.
func TestMVCCTortureWithCuts(t *testing.T) { runLeg(t, tableLeg(t, "mvcc sessions")) }

// Power cut with pooled readers live: the same manager rides across the
// remount and every pre-cut pooled connection must be invalidated on
// the first post-recovery checkout.
func TestPooledTortureWithCuts(t *testing.T) { runLeg(t, tableLeg(t, "mvcc pooled")) }

// Writers committing in groups, rollbacks and a page-stealing writer among
// them: without a cut every acknowledged transaction is there at the end;
// with one aimed into a shared flush, the interrupted group recovers whole
// or absent and every acknowledged member whole.
func TestGroupCommitTortureNoCut(t *testing.T) {
	rep := runLeg(t, Leg{Name: "group commit, no cut", Seeds: []int64{1},
		Cells: []Cell{{"writers=3", groupRun{writers: 3, txns: 20}.run}}, Needs: []string{"committed", "groups"}})
	if rep.Crashes != 0 || rep.Committed != rep.Transactions {
		t.Fatalf("unexpected report: %s", rep)
	}
}
func TestGroupCommitTortureWithCuts(t *testing.T) { runLeg(t, tableLeg(t, "group commit")) }
