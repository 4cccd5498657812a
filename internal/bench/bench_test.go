package bench

import (
	"os"
	"strings"
	"testing"
)

// quick is shared by tests that run in parallel: each experiment builds its
// own seeded stacks, so they have nothing else in common. They are the
// options `xftlbench -quick` runs with.
var quick = Options{Quick: true}

// checkGolden fails the test unless every table is a verbatim block of
// the committed `xftlbench -quick -quiet all` output: a change that
// moves a paper table fails here, not only in a diff against the file.
func checkGolden(t *testing.T, tbls ...*Table) {
	t.Helper()
	for _, tbl := range tbls {
		if !inGolden(t, tbl) {
			t.Errorf("table is not a block of results_quick.txt:\n%s", tbl)
		}
	}
}

// inGolden reports whether tbl is a verbatim block of results_quick.txt.
func inGolden(t *testing.T, tbl *Table) bool {
	t.Helper()
	golden, err := os.ReadFile("../../results_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Contains("\n"+string(golden), "\n"+tbl.String()+"\n")
}

func TestFig5Quick(t *testing.T) {
	t.Parallel()
	f, err := RunFig5(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, f.Tables()...)
	// Shape assertions: X-FTL fastest, RBJ slowest, for every point.
	for _, v := range f.Validities {
		for _, u := range f.Updates {
			c := f.Cells[v][u]
			if !(c[XFTL].Elapsed < c[WAL].Elapsed && c[WAL].Elapsed < c[RBJ].Elapsed) {
				t.Errorf("ordering broken at v=%.1f u=%d: rbj=%v wal=%v xftl=%v",
					v, u, c[RBJ].Elapsed, c[WAL].Elapsed, c[XFTL].Elapsed)
			}
		}
	}
}

func TestTable1Quick(t *testing.T) {
	t.Parallel()
	t1, err := RunTable1(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, t1.Table())
	rbj, wal, xf := t1.Runs[RBJ], t1.Runs[WAL], t1.Runs[XFTL]
	if xf.Host.JournalWrites != 0 {
		t.Error("X-FTL wrote journal pages")
	}
	if !(rbj.Host.Fsyncs > wal.Host.Fsyncs) {
		t.Error("RBJ should fsync more than WAL")
	}
	if !(rbj.Flash.PageWrites > wal.Flash.PageWrites && wal.Flash.PageWrites > xf.Flash.PageWrites) {
		t.Error("flash write ordering broken")
	}
}

func TestFig6Quick(t *testing.T) {
	t.Parallel()
	f, err := RunFig6(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, f.Tables()...)
	lo, hi := f.Validities[0], f.Validities[len(f.Validities)-1]
	for _, mode := range AllModes() {
		if !(f.Cells[hi][mode].Flash.PageWrites > f.Cells[lo][mode].Flash.PageWrites) {
			t.Errorf("%s: writes did not rise with validity", mode)
		}
	}
}

func TestFig7Table2Quick(t *testing.T) {
	t.Parallel()
	f, err := RunFig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, f.Table(), Table2(f))
	for name, runs := range f.Runs {
		if !(runs[XFTL].Elapsed < runs[WAL].Elapsed) {
			t.Errorf("%s: X-FTL (%v) not faster than WAL (%v)", name, runs[XFTL].Elapsed, runs[WAL].Elapsed)
		}
	}
}

func TestTable4Quick(t *testing.T) {
	t.Parallel()
	t4, err := RunTable4(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, Table3(), t4.Table())
	wi := t4.Results["write-intensive"]
	if !(wi[XFTL].Rate > wi[WAL].Rate) {
		t.Error("X-FTL should beat WAL on write-intensive TPC-C")
	}
}

func TestFig8Quick(t *testing.T) {
	t.Parallel()
	f, err := RunFig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, f.Table())
	for _, iv := range f.Intervals {
		p := f.Points[iv]
		if !(p[FSXFTL].IOPS > p[FSOrdered].IOPS && p[FSOrdered].IOPS > p[FSFull].IOPS) {
			t.Errorf("interval %d: IOPS ordering broken: %v/%v/%v",
				iv, p[FSXFTL].IOPS, p[FSOrdered].IOPS, p[FSFull].IOPS)
		}
	}
}

func TestFig9Quick(t *testing.T) {
	t.Parallel()
	f, err := RunFig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, f.Table())
	for _, iv := range f.Intervals {
		p := f.Points[iv]
		if !(p[0].IOPS > p[1].IOPS && p[1].IOPS > p[2].IOPS) {
			t.Errorf("interval %d: want S830-ordered > X-FTL > S830-full, got %.0f/%.0f/%.0f",
				iv, p[0].IOPS, p[1].IOPS, p[2].IOPS)
		}
	}
}

func TestTable5Quick(t *testing.T) {
	t.Parallel()
	runs, err := RunTable5(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, Table5Table(runs))
	if !(runs[XFTL].Restart < runs[RBJ].Restart && runs[RBJ].Restart < runs[WAL].Restart) {
		t.Errorf("recovery ordering broken: xftl=%v rbj=%v wal=%v",
			runs[XFTL].Restart, runs[RBJ].Restart, runs[WAL].Restart)
	}
}

func TestAblationsQuick(t *testing.T) {
	t.Parallel()
	runs, err := Ablations(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, AblationTable(runs))
	byName := map[string]AblationRun{}
	for _, r := range runs {
		byName[r.Name] = r
	}
	// Incremental barriers must make WAL cheaper than full-map store.
	if !(byName["wal-barrier-incremental"].Elapsed < byName["wal-barrier-fullmap"].Elapsed) {
		t.Error("incremental barrier not cheaper than full-map store")
	}
	// Idealized commit must be no slower than the calibrated one.
	if byName["commit-incremental-only"].Elapsed > byName["xl2p-500-entries"].Elapsed {
		t.Error("idealized commit slower than calibrated commit")
	}
}

// TestAblationsUnderFaults holds every variant to -faults: on faulty
// flash some row must leave the ideal-flash table results_quick.txt pins.
func TestAblationsUnderFaults(t *testing.T) {
	t.Parallel()
	runs, err := Ablations(Options{Quick: true, FaultScale: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tbl := AblationTable(runs); inGolden(t, tbl) {
		t.Errorf("the ablation at FaultScale 5 reads as on ideal flash:\n%s", tbl)
	}
}
