// Package torture checks the whole stack against the paper's §5.4
// recovery contract — after a power cut at any point every committed
// transaction is durable, every uncommitted one is gone, and one whose
// commit was interrupted landed all-or-nothing — on faulty flash.
//
// It has one judge and many schedule generators. The judge is the
// reference model of model.go. A leg (device.go, sql.go, session.go,
// group.go, fleet.go) only generates a seeded schedule — writes, commits, aborts,
// prepares, power cuts, injected faults — drives the real stack and the
// model with it, and hands the model an observe function over its keys:
// LPNs, rows, generations, per-shard values. Every crash goes through
// the one crash step and every grid through the one runner (Runner.Run);
// Legs is the table xftlbench and the package tests both walk.
// DESIGN.md §14 has the candidate rule and why the legs look as they do.
package torture

import (
	"errors"
	"fmt"
	"time"

	xftl "repro"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/simfs"
	"repro/internal/storage"
)

// Report aggregates what one run (or a whole leg) observed.
type Report struct {
	Transactions int
	Committed    int
	Aborted      int
	InDoubt      int // commit interrupted; outcome verified atomic
	Revoked      int // rollback-journal commits undone by the DELETE-mode durability window
	Crashes      int // injected power cuts that tripped
	Groups       int // commit(t)s that carried two or more transactions
	GroupCuts    int // power cuts that landed inside such a shared flush
	Steals       int // write transactions whose stolen pages closed the pending group
	Runs         int // grid cells executed (set by Runner.Run)
	WornOut      int // runs stopped early because the spare reserve ran out

	// Seeds records every seed that contributed (set by Runner.Run), so a
	// summary line is reproducible from itself.
	Seeds []int64

	// Recovery paths taken, read from the counters the layers keep. The
	// image and scan paths are Flash.ImageRecoveries / ScanRecoveries.
	JournalPlaybacks int64 // hot rollback journals played back at open (pager)
	WALReplays       int64 // committed WAL frames replayed at open (pager)
	Resolved         int64 // in-doubt 2PC participants resolved at remount (fleet)
	SnapOldHits      int64 // snapshot reads served a superseded version (X-FTL)

	// Degraded-mode counters (chaos runs; zero elsewhere).
	Retries         int64 // queue command attempts reissued
	Timeouts        int64 // command attempts that overran their deadline
	QuarantineTrips int64 // quarantine episodes opened
	Readmits        int64 // quarantined units probed back into service

	Flash metrics.FlashSnapshot
}

func (r *Report) String() string {
	s := fmt.Sprintf("txns=%d committed=%d aborted=%d indoubt=%d revoked=%d crashes=%d wornout=%d runs=%d",
		r.Transactions, r.Committed, r.Aborted, r.InDoubt, r.Revoked, r.Crashes, r.WornOut, r.Runs)
	if len(r.Seeds) > 0 {
		s += fmt.Sprintf(" seeds=%v", r.Seeds)
	}
	if r.Groups > 0 {
		s += fmt.Sprintf(" groups=%d groupcuts=%d steals=%d", r.Groups, r.GroupCuts, r.Steals)
	}
	if r.Retries+r.Timeouts+r.QuarantineTrips > 0 {
		s += fmt.Sprintf(" retries=%d timeouts=%d quarantines=%d readmits=%d",
			r.Retries, r.Timeouts, r.QuarantineTrips, r.Readmits)
	}
	s += fmt.Sprintf(" paths=journal:%d/wal:%d/image:%d/scan:%d/resolved:%d/snapold:%d",
		r.JournalPlaybacks, r.WALReplays, r.Flash.ImageRecoveries, r.Flash.ScanRecoveries, r.Resolved, r.SnapOldHits)
	return s + " [" + r.Flash.String() + "]"
}

// counts names the counters Leg.Needs may require.
func (r *Report) counts() map[string]int64 {
	return map[string]int64{
		"committed": int64(r.Committed), "aborted": int64(r.Aborted), "crashes": int64(r.Crashes),
		"indoubt": int64(r.InDoubt), "revoked": int64(r.Revoked),
		"groups": int64(r.Groups), "groupcuts": int64(r.GroupCuts), "steals": int64(r.Steals),
		"journal": r.JournalPlaybacks, "wal": r.WALReplays, "resolved": r.Resolved, "snapold": r.SnapOldHits,
		"image": r.Flash.ImageRecoveries, "scan": r.Flash.ScanRecoveries, "metacrc": r.Flash.MetaCRCFailures,
		"gc": r.Flash.GCRuns, "retired": r.Flash.RetiredBlocks, "transient": r.Flash.TransientFaults,
		"retries": r.Retries, "timeouts": r.Timeouts, "quarantines": r.QuarantineTrips,
	}
}

// add folds one cell's counts into the leg's report.
func (r *Report) add(o *Report) {
	r.Runs++
	r.Transactions += o.Transactions
	r.Committed += o.Committed
	r.Aborted += o.Aborted
	r.InDoubt += o.InDoubt
	r.Revoked += o.Revoked
	r.Crashes += o.Crashes
	r.Groups += o.Groups
	r.GroupCuts += o.GroupCuts
	r.Steals += o.Steals
	r.WornOut += o.WornOut
	r.JournalPlaybacks += o.JournalPlaybacks
	r.WALReplays += o.WALReplays
	r.Resolved += o.Resolved
	r.SnapOldHits += o.SnapOldHits
	r.Retries += o.Retries
	r.Timeouts += o.Timeouts
	r.QuarantineTrips += o.QuarantineTrips
	r.Readmits += o.Readmits
	r.addFlash(o.Flash)
}

// addFlash adds a flash snapshot: a − (0 − b), FlashSnapshot having Sub
// and no Add.
func (r *Report) addFlash(s metrics.FlashSnapshot) {
	r.Flash = r.Flash.Sub(metrics.FlashSnapshot{}.Sub(s))
}

// finish closes a run's report over its device: flash counters, and no
// read may ever have exceeded the ECC threshold.
func (r *Report) finish(dev *storage.Device) error {
	r.addFlash(dev.FlashStats().Snapshot())
	if x := dev.XFTL(); x != nil {
		r.SnapOldHits += x.Stats().SnapOldHits
	}
	if r.Flash.UncorrectableReads > 0 {
		return fmt.Errorf("uncorrectable-error escapes: %d reads exceeded the ECC threshold", r.Flash.UncorrectableReads)
	}
	return nil
}

// rig is the stack under test as the crash step sees it: its persisted
// metadata can be damaged while the power is off, it can be power-cycled,
// and it says which recovery path brought it back. *storage.Device is
// one; fsRig puts a file system on top.
type rig interface {
	CorruptMeta(slot string, erase bool) (int, error)
	Restart() error
	LastRecovery() ftl.RecoveryInfo
}

// fsRig power-cycles a device together with the file system mounted on it.
type fsRig struct {
	*storage.Device
	fs *simfs.FS
}

func (r fsRig) Restart() error {
	r.fs.PowerCut() // align the file system with the already-dead device
	return r.fs.Remount()
}

// corruption names a persisted metadata structure ("map" for the
// mapping-table pages, or a meta slot such as "bbt") whose every copy is
// damaged after each power cut: flipped in place (CRC must catch it) or,
// with erase, erased outright (a lost write). Zero damages nothing. Only
// the meta sweep sets it, on ideal flash, where nothing but the damage
// can fail the image path.
type corruption struct {
	slot  string
	erase bool
}

// powerLost reports whether err is the injected power cut surfacing
// through any layer of the stack.
func powerLost(err error) bool {
	return errors.Is(err, nand.ErrPowerLost) || errors.Is(err, core.ErrPowerCut)
}

// crash is the one crash step. cause is the error the schedule stopped
// on: only a power cut is survivable, anything else escaped the
// firmware. With the power off it damages the metadata c names,
// power-cycles the rig, and holds recovery to the hierarchy: damage must
// send it down the full-device OOB scan path, and in-place damage must
// have been rejected by CRC, never silently accepted. Where c names a
// target but nothing was there to damage, the image must mount: a scan
// then means the ring lost a page a pointer still names.
func crash(cause error, r rig, c corruption) error {
	if !powerLost(cause) {
		return fmt.Errorf("non-power fault escaped the stack: %w", cause)
	}
	damaged := 0
	if c.slot != "" {
		n, err := r.CorruptMeta(c.slot, c.erase)
		// ErrBadMetaSlot: the slot is not persisted yet, nothing to damage.
		if err != nil && !errors.Is(err, ftl.ErrBadMetaSlot) {
			return fmt.Errorf("corrupt meta %q: %w", c.slot, err)
		}
		damaged = n
	}
	if err := r.Restart(); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	ri := r.LastRecovery()
	if damaged == 0 {
		if c.slot != "" && ri.Mode == ftl.RecoveryScan {
			return fmt.Errorf("nothing of %q damaged, yet recovery took the scan path (reason %q)", c.slot, ri.Reason)
		}
		return nil
	}
	if ri.Mode != ftl.RecoveryScan {
		return fmt.Errorf("corrupted %d pages of %q yet recovery took the %v path (reason %q)", damaged, c.slot, ri.Mode, ri.Reason)
	}
	if !c.erase && ri.CRCFailures == 0 {
		return fmt.Errorf("silent acceptance: %d pages of %q corrupted in place, zero CRC rejections", damaged, c.slot)
	}
	return nil
}

// Cell is one grid cell: a schedule generator with all but the seed bound.
type Cell struct {
	Label string
	Run   func(seed int64) (*Report, error)
}

// Leg is one row of the leg table: a named grid of seeds x cells, and the
// counters a whole-grid run must leave non-zero: the leg's own recovery path.
type Leg struct {
	Name  string
	Flag  string  // the xftlbench mode that runs it: "torture" or "chaos"
	Seeds []int64 // the acceptance grid's seed axis
	Quick int     // how many of them a quick run keeps
	Cells []Cell
	Needs []string

	faults float64 // the -faults value the table was built with, for the replay line
}

// Runner is the one grid runner: it owns the seed axis, quick trimming,
// the one-seed replay, progress and aggregation for every leg.
type Runner struct {
	Quick bool
	// Seed, when non-zero, replaces the leg's seed axis with that one
	// seed: the replay of a violation. Needs are not enforced then — one
	// seed need not reach every path.
	Seed     int64
	Progress func(format string, args ...any) // one line per cell, when non-nil
}

// Run executes the leg's grid, seed-major, up to the first violation, whose
// error ends with the grid position and the command line that replays it.
func (o Runner) Run(l Leg) (*Report, error) {
	seeds := l.Seeds
	if o.Quick {
		seeds = seeds[:l.Quick]
	}
	if o.Seed != 0 {
		seeds = []int64{o.Seed}
	}
	agg := &Report{}
	for _, seed := range seeds {
		agg.Seeds = append(agg.Seeds, seed)
		for _, c := range l.Cells {
			rep, err := c.Run(seed)
			if rep != nil {
				agg.add(rep)
			}
			if err != nil {
				err = fmt.Errorf("%w\n\tleg=%s cell=%s seed=%d", err, l.Name, c.Label, seed)
				if l.Flag != "" {
					err = fmt.Errorf("%w%s", err, l.replay(o.Quick, seed))
				}
				return agg, err
			}
			if o.Progress != nil {
				o.Progress("%s: %s seed=%d %s", l.Name, c.Label, seed, rep)
			}
		}
	}
	if o.Seed != 0 {
		return agg, nil
	}
	counts := agg.counts()
	for _, n := range l.Needs {
		if v, ok := counts[n]; !ok {
			panic("torture: no counter named " + n)
		} else if v == 0 {
			return agg, fmt.Errorf("leg %q never exercised %q: %s", l.Name, n, agg)
		}
	}
	return agg, nil
}

// replay is the xftlbench line that re-runs one seed of a table leg.
func (l Leg) replay(quick bool, seed int64) string {
	flags := ""
	if quick {
		flags += " -quick"
	}
	if l.faults > 0 {
		flags += fmt.Sprintf(" -faults %g", l.faults)
	}
	return fmt.Sprintf("\n\treplay: xftlbench%s -%s -seed %d", flags, l.Flag, seed)
}

// Legs is the leg table: every grid `xftlbench -torture` and `-chaos`
// run and the package tests assert. faults > 0 replaces the device
// sweep's fault-scale column and the SQL legs' default scale.
func Legs(faults float64) []Leg {
	scales, sqlScale := []float64{0, 60, 150}, 20.0
	if faults > 0 {
		scales, sqlScale = []float64{0, faults}, faults
	}
	modes := []struct {
		mode xftl.Mode
		path string // the recovery path a crash in this journal mode takes
	}{{xftl.ModeRollback, "journal"}, {xftl.ModeWAL, "wal"}, {xftl.ModeXFTL, "image"}}
	six := []int64{1, 2, 3, 4, 5, 6}

	var sweep []Cell
	for _, cut := range []int64{0, 90, 230} {
		for _, scale := range scales {
			sweep = append(sweep, Cell{fmt.Sprintf("cut=%d scale=%g", cut, scale), deviceRun{cut: cut, scale: scale}.run})
		}
	}
	legs := []Leg{{
		Name: "device sweep", Seeds: six, Quick: 2, Cells: sweep,
		Needs: []string{"crashes", "indoubt", "image", "gc", "retired"},
	}}
	for _, m := range modes {
		legs = append(legs, Leg{
			Name: "sql " + m.mode.String(), Seeds: six, Quick: 2,
			Cells: []Cell{{fmt.Sprintf("cut=4000 scale=%g", sqlScale), sqlRun{mode: m.mode, cut: 4000, scale: sqlScale}.run}},
			Needs: []string{"crashes", "indoubt", "aborted", m.path},
		})
	}
	legs = append(legs, Leg{
		Name: "mvcc sessions", Seeds: six, Quick: 2,
		Cells: []Cell{{fmt.Sprintf("cut=%d", sessionCut), sessionRun{txns: 60, cut: sessionCut}.run}},
		Needs: []string{"crashes", "committed", "snapold"},
	})
	var groups []Cell
	for _, writers := range []int{2, 3} {
		groups = append(groups, Cell{fmt.Sprintf("writers=%d", writers), groupRun{writers: writers, txns: 40, cut: true}.run})
	}
	legs = append(legs, Leg{
		Name: "group commit", Seeds: six, Quick: 2, Cells: groups,
		Needs: []string{"crashes", "committed", "groups", "groupcuts", "steals"},
	})
	legs = append(legs, Leg{
		Name: "fleet 2pc", Seeds: []int64{1, 2, 3, 4}, Quick: 1, Cells: fleetCells(),
		Needs: []string{"crashes", "indoubt", "resolved", "aborted"},
	})
	// Metadata corruption on ideal flash, so every scan fallback is
	// attributable to the injected damage.
	var meta []Cell
	for _, slot := range []string{"map", "bbt"} {
		for _, erase := range []bool{false, true} {
			c, label := corruption{slot, erase}, fmt.Sprintf("%s erase=%v", slot, erase)
			meta = append(meta, Cell{"device " + label, deviceRun{cut: 160, corruption: c}.run})
			for _, m := range modes {
				meta = append(meta, Cell{"sql " + m.mode.String() + " " + label, sqlRun{mode: m.mode, cut: 4000, corruption: c}.run})
			}
		}
	}
	legs = append(legs, Leg{
		Name: "meta sweep", Seeds: []int64{1, 2, 3}, Quick: 1, Cells: meta,
		Needs: []string{"crashes", "scan", "metacrc"},
	})
	var storms []Cell
	for _, scale := range []float64{0, 60} {
		for _, hang := range []bool{false, true} {
			d := deviceRun{cut: 160, scale: scale, storm: &storm{}}
			if hang {
				d.storm = &storm{hangEvery: 40, hangStall: 20 * time.Millisecond}
			}
			storms = append(storms, Cell{fmt.Sprintf("scale=%g hang=%v", scale, hang), d.run})
		}
	}
	legs = append(legs, Leg{
		Name: "chaos sweep", Flag: "chaos", Seeds: []int64{1, 2, 3}, Quick: 1, Cells: storms,
		// The storm must actually have stormed: faults injected with no
		// retries would mean the plane is wired to nothing.
		Needs: []string{"crashes", "transient", "retries", "timeouts"},
	})
	for i := range legs {
		if legs[i].faults = faults; legs[i].Flag == "" {
			legs[i].Flag = "torture"
		}
	}
	return legs
}
