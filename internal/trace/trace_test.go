package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/simclock"
)

var update = flag.Bool("update", false, "rewrite golden files")

// A nil tracer must be a complete no-op: the disabled path of every
// instrumented layer calls these without guarding anything but Record.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Attach(simclock.New(), "x")
	tr.Record(Event{Layer: LNCQ, Kind: KCmd})
	if tr.Now() != 0 || tr.Len() != 0 || tr.Events() != nil {
		t.Error("nil tracer retained state")
	}
	if tr.GenLabel(1) != "" {
		t.Error("nil tracer has a generation label")
	}
}

func TestGenerations(t *testing.T) {
	tr := New()
	c1, c2 := simclock.New(), simclock.New()
	tr.Attach(c1, "first")
	tr.Record(Event{Layer: LFS, Kind: KFSWrite})
	tr.Attach(c2, "second")
	tr.Record(Event{Layer: LFS, Kind: KFSWrite})
	evs := tr.Events()
	if evs[0].Gen != 1 || evs[1].Gen != 2 {
		t.Fatalf("generations %d, %d; want 1, 2", evs[0].Gen, evs[1].Gen)
	}
	if tr.GenLabel(1) != "first" || tr.GenLabel(2) != "second" {
		t.Errorf("labels %q, %q", tr.GenLabel(1), tr.GenLabel(2))
	}
}

// goldenEvents is a fixed event sequence exercising every export path:
// host events on two sessions, an NCQ command, NAND ops on two units,
// and firmware spans across two generations.
func goldenTracer() *Tracer {
	tr := New()
	tr.Attach(simclock.New(), "gen-a")
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr.Record(Event{Layer: LSession, Kind: KSession, Start: 0, Dur: ms(10), Sess: 1, Aux: 1})
	tr.Record(Event{Layer: LSQL, Kind: KTxn, Start: ms(1), Dur: ms(8), Sess: 1, Aux: 1})
	tr.Record(Event{Layer: LPager, Kind: KPageRead, Start: ms(2), Dur: ms(1), Sess: 1, Addr: 42})
	tr.Record(Event{Layer: LFS, Kind: KFSWrite, Start: ms(3), Sess: 1, Addr: 7, Aux: WJournal})
	tr.Record(Event{Layer: LNCQ, Kind: KCmd, Start: ms(3), Dur: ms(2), Disp: ms(4),
		Sess: 1, TID: 5, Addr: 7, Depth: 2, Op: 5, Origin: OHost})
	tr.Record(Event{Layer: LNAND, Kind: KNandProg, Start: ms(4), Dur: ms(1), Sess: 1, Addr: 1000, Unit: 3})
	tr.Record(Event{Layer: LNAND, Kind: KNandRead, Start: ms(5), Dur: ms(1), Sess: 2, Addr: 2000, Unit: 0, Origin: OGC})
	tr.Record(Event{Layer: LFTL, Kind: KGC, Start: ms(5), Dur: ms(2), Addr: 9, Aux: 17, Origin: OGC})
	tr.Attach(simclock.New(), "gen-b")
	tr.Record(Event{Layer: LXFTL, Kind: KXCommit, Start: 0, Dur: ms(1), Sess: 2, TID: 5, Aux: 3, Origin: OCommit})
	tr.Record(Event{Layer: LNAND, Kind: KNandErase, Start: ms(1), Dur: ms(2), Addr: 11, Unit: -1, Origin: OGC})
	return tr
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exporter output diverged from golden file; run with -update and review the diff.\ngot:\n%s", buf.String())
	}
}

// The exporter's output must parse as JSON and respect the trace-event
// structural contract Perfetto relies on.
func TestChromeTraceParses(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var xEvents, metas int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			xEvents++
			for _, field := range []string{"name", "ts", "dur", "pid", "tid", "args"} {
				if _, ok := ev[field]; !ok {
					t.Errorf("X event missing %q: %v", field, ev)
				}
			}
		case "M":
			metas++
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
	}
	if xEvents != 10 {
		t.Errorf("got %d X events, want 10", xEvents)
	}
	if metas == 0 {
		t.Error("no metadata events (process/thread names)")
	}
}

// A generation label is any string: one that holds control characters
// and quotes must still export as valid JSON and read back verbatim.
func TestChromeTraceLabelsEscape(t *testing.T) {
	const label = "run \"a\"\n\tb\x01\\"
	tr := New()
	tr.Attach(simclock.New(), label)
	tr.Record(Event{Layer: LFS, Kind: KFSWrite, Sess: 1})
	tr.Record(Event{Layer: LFTL, Kind: KGC})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("output is not valid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var names []any
	for _, ev := range doc.TraceEvents {
		if ev.Name == "process_name" {
			names = append(names, ev.Args["name"])
		}
	}
	if want := []any{"host · " + label, "device · " + label}; !reflect.DeepEqual(names, want) {
		t.Errorf("processes named %q, want %q", names, want)
	}
}

func TestFlameSummary(t *testing.T) {
	s := goldenTracer().FlameSummary()
	for _, want := range []string{"10 events", "nand/nand-prog", "device time by origin", "gc"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if got := New().FlameSummary(); !strings.Contains(got, "no events") {
		t.Errorf("empty summary = %q", got)
	}
}
