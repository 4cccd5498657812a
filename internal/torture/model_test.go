package torture

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ftl"
	"repro/internal/nand"
)

// The judge against fakes: each case drives the model with a schedule,
// hands it a fake observation no real stack produced, and requires the
// verdict — one failing fake per invariant of the contract, beside the
// states the contract does allow.

// twoCommitted returns a model with keys 1..3 at version 1, one more
// commit (tid 2) moving keys 1 and 2 to version 2, and an open
// transaction (tid 3) that wrote version 3 to keys 2 and 3.
func twoCommitted(rbj bool) *model {
	m := newModel(rbj)
	for k := int64(1); k <= 3; k++ {
		m.write(1, k, 1)
	}
	m.commit(1)
	m.write(2, 1, 2)
	m.write(2, 2, 2)
	m.commit(2)
	m.write(3, 2, 3)
	m.write(3, 3, 3)
	return m
}

func TestJudgeRecover(t *testing.T) {
	for _, c := range []struct {
		name    string
		rbj     bool
		indoubt uint64
		prepare bool
		got     map[int64]int64
		want    string // the outcome, or "!" + a fragment of the violation
	}{
		{name: "committed state", got: map[int64]int64{1: 2, 2: 2, 3: 1}, want: "committed"},
		{name: "in-doubt commit landed whole", indoubt: 3, got: map[int64]int64{1: 2, 2: 3, 3: 3}, want: "indoubt"},
		{name: "in-doubt commit vanished whole", indoubt: 3, got: map[int64]int64{1: 2, 2: 2, 3: 1}, want: "committed"},
		{name: "prepared transaction landed whole", prepare: true, got: map[int64]int64{1: 2, 2: 3, 3: 3}, want: "indoubt"},
		{name: "revocable commit revoked under RBJ", rbj: true, got: map[int64]int64{1: 1, 2: 1, 3: 1}, want: "revoked"},

		{name: "mixed old and new pages of an in-doubt commit", indoubt: 3,
			got: map[int64]int64{1: 2, 2: 3, 3: 1}, want: "!indoubt wants key 3 = 3, found 1"},
		{name: "lost committed key", got: map[int64]int64{1: 2, 2: 2}, want: "!committed wants key 3 = 1, found -1"},
		{name: "committed key rolled back", got: map[int64]int64{1: 1, 2: 2, 3: 1}, want: "!committed wants key 1 = 2, found 1"},
		{name: "surviving uncommitted write", got: map[int64]int64{1: 2, 2: 3, 3: 3}, want: "!committed wants key 2 = 2, found 3"},
		{name: "revoked accepted outside RBJ", got: map[int64]int64{1: 1, 2: 1, 3: 1}, want: "!matches none of the 1 states"},
		{name: "RBJ revokes more than the one revocable commit", rbj: true,
			got: map[int64]int64{1: 0, 2: 0, 3: 0}, want: "!revoked wants key 1 = 1, found 0"},
		{name: "torn page", got: map[int64]int64{1: 2, 2: noVersion, 3: 1}, want: "!committed wants key 2 = 2, found -1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := twoCommitted(c.rbj)
			if c.prepare {
				m.prepare(3)
			}
			outcome, err := m.recover(c.indoubt, lookup(c.got))
			if frag, bad := strings.CutPrefix(c.want, "!"); bad {
				if err == nil || !strings.Contains(err.Error(), frag) {
					t.Fatalf("verdict %q, %v; want a violation naming %q", outcome, err, frag)
				}
				return
			}
			if err != nil || outcome != c.want {
				t.Fatalf("verdict %q, %v; want %q", outcome, err, c.want)
			}
			// The model adopted what it accepted: the same state is now
			// exactly the committed one, and nothing stays in flight.
			if err := m.verify(lookup(c.got)); err != nil {
				t.Fatalf("adopted state does not verify: %v", err)
			}
		})
	}
}

func TestJudgeSnapshot(t *testing.T) {
	gen := func(g int64) map[int64]int64 { return map[int64]int64{0: g, 1: g, 2: g} }
	m := newModel(false)
	for g := int64(1); g <= 4; g++ { // generations 1..3 committed, 4 in flight
		for k := int64(0); k < 3; k++ {
			m.write(uint64(g), k, g)
		}
		if g < 4 {
			m.commit(uint64(g))
		}
	}
	for _, c := range []struct {
		name  string
		floor int
		got   map[int64]int64
		want  string // "" = legal, else a fragment of the violation
	}{
		{name: "floor generation", floor: 2, got: gen(2)},
		{name: "latest generation", floor: 2, got: gen(3)},
		{name: "commit in flight already on the device", floor: 2, got: gen(4)},
		{name: "generation below the floor", floor: 2, got: gen(1), want: "snapshot opened at gen 2 matches none of the 3 states"},
		{name: "generation past the ceiling", floor: 2, got: gen(5), want: "gen 3 wants key 0 = 3, found 5"},
		{name: "torn between two generations", floor: 2, got: map[int64]int64{0: 3, 1: 2, 2: 3}, want: "gen 2 wants key 0 = 2, found 3"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := m.snapshot(c.floor, lookup(c.got))
			if c.want == "" && err != nil {
				t.Fatal(err)
			}
			if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
				t.Fatalf("verdict %v; want a violation naming %q", err, c.want)
			}
		})
	}
}

// A cross-shard commit is one transaction over participant keys: the
// fleet's atomicity is the in-doubt rule, and participants that
// disagree match no state.
func TestJudgeFleetParticipants(t *testing.T) {
	for _, c := range []struct {
		name    string
		decided bool
		got     map[int64]int64
		ok      bool
	}{
		{name: "prepared, all aborted", got: map[int64]int64{0: 0, 1: 0, 2: 0}, ok: true},
		{name: "prepared, all committed", got: map[int64]int64{0: 9, 1: 9, 2: 9}, ok: true},
		{name: "participants disagree", got: map[int64]int64{0: 9, 1: 0, 2: 9}},
		{name: "decision durable, all committed", decided: true, got: map[int64]int64{0: 9, 1: 9, 2: 9}, ok: true},
		{name: "decision durable yet aborted", decided: true, got: map[int64]int64{0: 0, 1: 0, 2: 0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := newModel(false)
			for k := int64(0); k < 3; k++ {
				m.load(k, 0)
				m.write(7, k, 9)
			}
			m.prepare(7)
			if c.decided {
				m.commit(7)
			}
			if _, err := m.recover(0, lookup(c.got)); (err == nil) != c.ok {
				t.Fatalf("verdict %v, want ok=%v", err, c.ok)
			}
		})
	}
}

// fakeRig is a stack whose recovery reports whatever the case says.
type fakeRig struct {
	damaged  int
	recovery ftl.RecoveryInfo
	restarts int
}

func (r *fakeRig) CorruptMeta(string, bool) (int, error) { return r.damaged, nil }
func (r *fakeRig) Restart() error                        { r.restarts++; return nil }
func (r *fakeRig) LastRecovery() ftl.RecoveryInfo        { return r.recovery }

func TestCrashStep(t *testing.T) {
	scan := ftl.RecoveryInfo{Mode: ftl.RecoveryScan, CRCFailures: 2}
	for _, c := range []struct {
		name  string
		cause error
		rig   fakeRig
		c     corruption
		want  string // "" = the step passes
	}{
		{name: "plain power cut", cause: nand.ErrPowerLost},
		{name: "damage found by the scan", cause: nand.ErrPowerLost, rig: fakeRig{damaged: 3, recovery: scan}, c: corruption{slot: "map"}},
		{name: "slot not persisted yet", cause: nand.ErrPowerLost, rig: fakeRig{recovery: ftl.RecoveryInfo{Mode: ftl.RecoveryImage}}, c: corruption{slot: "bbt"}},
		{name: "nothing damaged yet scanned", cause: nand.ErrPowerLost, rig: fakeRig{recovery: scan}, c: corruption{slot: "bbt"}, want: "nothing of \"bbt\" damaged"},
		{name: "scan with no target named", cause: nand.ErrPowerLost, rig: fakeRig{recovery: scan}},
		{name: "non-power fault escaped", cause: errors.New("nand: program failed"), want: "non-power fault escaped"},
		{name: "corruption injected but image path taken", cause: nand.ErrPowerLost,
			rig: fakeRig{damaged: 3, recovery: ftl.RecoveryInfo{Mode: ftl.RecoveryImage}}, c: corruption{slot: "map"}, want: "yet recovery took the"},
		{name: "in-place corruption with zero CRC rejections", cause: nand.ErrPowerLost,
			rig: fakeRig{damaged: 3, recovery: ftl.RecoveryInfo{Mode: ftl.RecoveryScan}}, c: corruption{slot: "map"}, want: "silent acceptance"},
		{name: "erasure needs no CRC rejection", cause: nand.ErrPowerLost,
			rig: fakeRig{damaged: 3, recovery: ftl.RecoveryInfo{Mode: ftl.RecoveryScan}}, c: corruption{slot: "map", erase: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := crash(c.cause, &c.rig, c.c)
			if c.want == "" && (err != nil || c.rig.restarts != 1) {
				t.Fatalf("verdict %v after %d restarts; want one clean restart", err, c.rig.restarts)
			}
			if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
				t.Fatalf("verdict %v; want a violation naming %q", err, c.want)
			}
		})
	}
}

// A violation names the grid position and the command line that replays it.
func TestViolationNamesItsReplay(t *testing.T) {
	boom := errors.New("recovered state matches none")
	l := Leg{Name: "sql RBJ", Flag: "torture", Seeds: []int64{1, 2, 3}, Quick: 2,
		Cells: []Cell{{"cut=4000 scale=20", func(seed int64) (*Report, error) {
			if seed == 2 {
				return &Report{}, boom
			}
			return &Report{}, nil
		}}}}
	_, err := Runner{Quick: true}.Run(l)
	want := "leg=sql RBJ cell=cut=4000 scale=20 seed=2\n\treplay: xftlbench -quick -torture -seed 2"
	if !errors.Is(err, boom) || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("violation reads %q, want it to wrap the cause and end with %q", err, want)
	}
	if rep, err := (Runner{Seed: 3}).Run(l); err != nil || len(rep.Seeds) != 1 || rep.Seeds[0] != 3 {
		t.Fatalf("-seed 3 ran seeds %v, err %v", rep.Seeds, err)
	}
}
