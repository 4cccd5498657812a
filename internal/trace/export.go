// Chrome trace-event exporter and text flame summary.
//
// The JSON follows the Trace Event Format's "JSON object" flavor: a
// {"traceEvents": [...]} document of complete ("X") events with
// microsecond timestamps, loadable directly in Perfetto or
// chrome://tracing. Each attach generation becomes its own pid pair —
// one "host" process whose threads are sessions, one "device" process
// whose threads are the NAND units plus a firmware lane — so sweeps
// that rebuild the stack (and restart the virtual clock) per point
// render side by side instead of overlapping.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Thread ids inside a device process.
const (
	tidEpisodes = 1   // FTL/X-FTL firmware spans (GC, commit, recovery)
	tidUnitBase = 100 // NAND unit u renders as tid 100+u
)

// tidServer hosts serving-tier request spans inside the host process,
// well above any plausible session id so the lanes never collide.
const tidServer = 1 << 20

func (l Layer) host() bool {
	switch l {
	case LSession, LSQL, LPager, LFS, LNCQ, LServer:
		return true
	}
	return false
}

// pids for generation g (1-based): host process, device process.
func genPids(g uint16) (int, int) { return int(g)*10 + 1, int(g)*10 + 2 }

// usec renders a virtual-time instant as Chrome's microsecond float.
func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteChromeTrace writes every recorded event as Chrome trace-event
// JSON. Output is deterministic for a deterministic event sequence.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}

	// Metadata: name each process and thread we are about to use.
	type thread struct{ pid, tid int }
	seen := map[thread]string{}
	order := []thread{}
	name := func(pid, tid int, n string) {
		th := thread{pid, tid}
		if _, ok := seen[th]; !ok {
			seen[th] = n
			order = append(order, th)
		}
	}
	maxGen := uint16(0)
	for i := range events {
		ev := &events[i]
		if ev.Gen > maxGen {
			maxGen = ev.Gen
		}
		hostPid, devPid := genPids(ev.Gen)
		if ev.Layer == LServer {
			name(hostPid, tidServer, "server requests")
		} else if ev.Layer.host() {
			tid := int(ev.Sess)
			tn := fmt.Sprintf("session %d", ev.Sess)
			if ev.Sess == 0 {
				tid, tn = 0, "unattributed"
			}
			name(hostPid, tid, tn)
		} else if ev.Kind == KNandRead || ev.Kind == KNandProg {
			name(devPid, tidUnitBase+int(ev.Unit), fmt.Sprintf("nand unit %d", ev.Unit))
		} else {
			name(devPid, tidEpisodes, "firmware")
		}
	}
	for g := uint16(1); g <= maxGen; g++ {
		label := t.GenLabel(g)
		if label == "" {
			label = fmt.Sprintf("run %d", g)
		}
		hostPid, devPid := genPids(g)
		emit(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"args":{"name":%s}}`, hostPid, jsonString("host · "+label)))
		emit(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"args":{"name":%s}}`, devPid, jsonString("device · "+label)))
	}
	for _, th := range order {
		emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`, th.pid, th.tid, jsonString(seen[th])))
	}

	for i := range events {
		ev := &events[i]
		hostPid, devPid := genPids(ev.Gen)
		pid, tid := devPid, tidEpisodes
		if ev.Layer == LServer {
			pid, tid = hostPid, tidServer
		} else if ev.Layer.host() {
			pid, tid = hostPid, int(ev.Sess)
		} else if ev.Kind == KNandRead || ev.Kind == KNandProg {
			tid = tidUnitBase + int(ev.Unit)
		}
		var args strings.Builder
		fmt.Fprintf(&args, `"origin":"%s","sess":%d`, ev.Origin, ev.Sess)
		if ev.Req != 0 {
			fmt.Fprintf(&args, `,"req":%d`, ev.Req)
		}
		if ev.TID != 0 {
			fmt.Fprintf(&args, `,"tid":%d`, ev.TID)
		}
		if ev.Addr != 0 || ev.Kind == KCmd || ev.Kind == KNandRead || ev.Kind == KNandProg || ev.Kind == KNandErase {
			fmt.Fprintf(&args, `,"addr":%d`, ev.Addr)
		}
		if ev.Kind == KCmd {
			fmt.Fprintf(&args, `,"op":"%s","depth":%d,"dispatch_us":%.3f`, opName(ev.Op), ev.Depth, usec(ev.Disp))
		}
		if ev.Aux != 0 {
			fmt.Fprintf(&args, `,"aux":%d`, ev.Aux)
		}
		emit(fmt.Sprintf(`{"name":"%s","cat":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{%s}}`,
			eventName(ev), ev.Layer, usec(ev.Start), usec(ev.Dur), pid, tid, args.String()))
	}
	if _, err := bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// eventName picks the Perfetto slice title.
func eventName(ev *Event) string {
	if ev.Kind == KCmd {
		return "cmd:" + opName(ev.Op)
	}
	return ev.Kind.String()
}

// opName decodes the ncq.Op byte without importing ncq (which imports
// this package). Mirrors ncq.Op.String.
func opName(op uint8) string {
	names := [...]string{"read", "write", "trim", "barrier", "readtx", "writetx", "commit", "abort", "snapread", "prepare"}
	if int(op) < len(names) {
		return names[op]
	}
	return fmt.Sprintf("op%d", op)
}

// jsonString renders s as a JSON string, quotes included.
func jsonString(s string) string {
	b, _ := json.Marshal(s) // a string always marshals
	return string(b)
}

// FlameSummary renders a text roll-up of the trace: per layer/kind
// event counts and total virtual time, sorted by time descending —
// the "where did the virtual microseconds go" view for terminals.
func (t *Tracer) FlameSummary() string {
	events := t.Events()
	if len(events) == 0 {
		return "trace: no events recorded\n"
	}
	type key struct {
		layer Layer
		kind  Kind
	}
	type agg struct {
		count int64
		total time.Duration
	}
	byKind := map[key]*agg{}
	byOrigin := map[Origin]*agg{}
	var span time.Duration
	for i := range events {
		ev := &events[i]
		k := key{ev.Layer, ev.Kind}
		a := byKind[k]
		if a == nil {
			a = &agg{}
			byKind[k] = a
		}
		a.count++
		a.total += ev.Dur
		if ev.Layer == LNAND || ev.Kind == KCmd {
			o := byOrigin[ev.Origin]
			if o == nil {
				o = &agg{}
				byOrigin[ev.Origin] = o
			}
			o.count++
			o.total += ev.Dur
		}
		if end := ev.Start + ev.Dur; end > span {
			span = end
		}
	}
	keys := make([]key, 0, len(byKind))
	for k := range byKind {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := byKind[keys[i]], byKind[keys[j]]
		if a.total != b.total {
			return a.total > b.total
		}
		return a.count > b.count
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace summary: %d events over %v of virtual time\n", len(events), span)
	fmt.Fprintf(&sb, "  %-18s %10s %14s\n", "layer/kind", "count", "virtual time")
	for _, k := range keys {
		a := byKind[k]
		fmt.Fprintf(&sb, "  %-18s %10d %14v\n", k.layer.String()+"/"+k.kind.String(), a.count, a.total)
	}
	origins := make([]Origin, 0, len(byOrigin))
	for o := range byOrigin {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	sb.WriteString("  device time by origin:\n")
	for _, o := range origins {
		a := byOrigin[o]
		fmt.Fprintf(&sb, "    %-10s %10d %14v\n", o, a.count, a.total)
	}
	return sb.String()
}
