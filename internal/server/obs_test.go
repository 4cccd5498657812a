package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// --- Strict Prometheus text-format (0.0.4) parser ------------------
//
// The exposition is consumed by real scrapers, so the tests parse it
// with a strict grammar instead of substring checks: every sample must
// belong to a family whose HELP and TYPE were declared first, label
// values must use only the legal escapes, and histogram families must
// be cumulative with a +Inf bucket equal to _count.

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promFamily struct {
	name    string
	typ     string
	help    string
	samples []promSample
}

// sampleBase maps a sample name to its family name given the family
// type's allowed suffixes.
func sampleBase(name string, families map[string]*promFamily) (*promFamily, bool) {
	if f, ok := families[name]; ok {
		return f, true
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base, found := strings.CutSuffix(name, suf)
		if !found {
			continue
		}
		f, ok := families[base]
		if !ok {
			continue
		}
		if f.typ == "histogram" || (f.typ == "summary" && suf != "_bucket") {
			return f, true
		}
	}
	return nil, false
}

// parseLabels parses `{k="v",...}` allowing exactly the \\, \" and \n
// escapes in values. Returns the labels and the byte offset just past
// the closing brace.
func parseLabels(t *testing.T, line string) (map[string]string, int) {
	t.Helper()
	labels := map[string]string{}
	i := 1 // past '{'
	for {
		if i >= len(line) {
			t.Fatalf("unterminated label set: %q", line)
		}
		if line[i] == '}' {
			return labels, i + 1
		}
		j := strings.IndexByte(line[i:], '=')
		if j < 0 {
			t.Fatalf("label without '=': %q", line)
		}
		key := line[i : i+j]
		if !isMetricName(key) {
			t.Fatalf("bad label name %q in %q", key, line)
		}
		i += j + 1
		if i >= len(line) || line[i] != '"' {
			t.Fatalf("unquoted label value in %q", line)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(line) {
				t.Fatalf("unterminated label value: %q", line)
			}
			c := line[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(line) {
					t.Fatalf("dangling escape: %q", line)
				}
				switch line[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					t.Fatalf("illegal escape \\%c in label value: %q", line[i+1], line)
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels[key] = val.String()
		if i < len(line) && line[i] == ',' {
			i++
		}
	}
}

func isMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9') || (i > 0 && c == ':')
		if !ok {
			return false
		}
	}
	return true
}

// parseProm parses a full exposition, failing the test on any
// violation of the text format.
func parseProm(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	families := map[string]*promFamily{}
	for ln, line := range strings.Split(text, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			if !isMetricName(name) {
				t.Fatalf("line %d: bad HELP name %q", ln+1, name)
			}
			if _, dup := families[name]; dup {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			families[name] = &promFamily{name: name, help: help}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			f, ok := families[name]
			if !ok {
				t.Fatalf("line %d: TYPE %s before its HELP", ln+1, name)
			}
			if f.typ != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
				f.typ = typ
			default:
				t.Fatalf("line %d: unknown TYPE %q for %s", ln+1, typ, name)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		// Sample line: name[{labels}] value
		nameEnd := strings.IndexAny(line, "{ ")
		if nameEnd < 0 {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		name := line[:nameEnd]
		if !isMetricName(name) {
			t.Fatalf("line %d: bad metric name %q", ln+1, name)
		}
		labels := map[string]string{}
		rest := line[nameEnd:]
		if rest[0] == '{' {
			var n int
			labels, n = parseLabels(t, rest)
			rest = rest[n:]
		}
		valStr := strings.TrimSpace(rest)
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", ln+1, valStr, err)
		}
		fam, ok := sampleBase(name, families)
		if !ok {
			t.Fatalf("line %d: sample %s has no declared family", ln+1, name)
		}
		if fam.typ == "" {
			t.Fatalf("line %d: sample %s before its TYPE", ln+1, name)
		}
		fam.samples = append(fam.samples, promSample{name: name, labels: labels, value: val})
	}
	return families
}

// labelsetKey renders a label set minus the given key, for grouping
// histogram series.
func labelsetKey(labels map[string]string, drop string) string {
	var parts []string
	for k, v := range labels {
		if k != drop {
			parts = append(parts, k+"="+v)
		}
	}
	// Small maps; insertion-order independence matters more than speed.
	for i := 0; i < len(parts); i++ {
		for j := i + 1; j < len(parts); j++ {
			if parts[j] < parts[i] {
				parts[i], parts[j] = parts[j], parts[i]
			}
		}
	}
	return strings.Join(parts, ",")
}

// checkHistogram asserts one histogram family is well-formed: per
// series the buckets are cumulative-monotone, end in le="+Inf", and
// the +Inf bucket equals _count.
func checkHistogram(t *testing.T, f *promFamily) {
	t.Helper()
	if f.typ != "histogram" {
		t.Fatalf("%s: TYPE %s, want histogram", f.name, f.typ)
	}
	type series struct {
		buckets []promSample
		count   *float64
		sum     bool
	}
	byKey := map[string]*series{}
	get := func(s promSample) *series {
		k := labelsetKey(s.labels, "le")
		if byKey[k] == nil {
			byKey[k] = &series{}
		}
		return byKey[k]
	}
	for _, s := range f.samples {
		switch s.name {
		case f.name + "_bucket":
			get(s).buckets = append(get(s).buckets, s)
		case f.name + "_count":
			v := s.value
			get(s).count = &v
		case f.name + "_sum":
			get(s).sum = true
		default:
			t.Fatalf("%s: unexpected sample %s", f.name, s.name)
		}
	}
	if len(byKey) == 0 {
		t.Fatalf("%s: histogram family with no series", f.name)
	}
	for key, sr := range byKey {
		if sr.count == nil || !sr.sum {
			t.Fatalf("%s{%s}: missing _count or _sum", f.name, key)
		}
		if len(sr.buckets) == 0 {
			t.Fatalf("%s{%s}: no buckets", f.name, key)
		}
		prevUpper := math.Inf(-1)
		prevCount := -1.0
		for _, b := range sr.buckets {
			le, ok := b.labels["le"]
			if !ok {
				t.Fatalf("%s{%s}: bucket without le", f.name, key)
			}
			upper, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("%s{%s}: bad le %q", f.name, key, le)
			}
			if upper <= prevUpper {
				t.Fatalf("%s{%s}: le %q not ascending", f.name, key, le)
			}
			if b.value < prevCount {
				t.Fatalf("%s{%s}: bucket counts not cumulative at le=%q (%v < %v)",
					f.name, key, le, b.value, prevCount)
			}
			prevUpper, prevCount = upper, b.value
		}
		last := sr.buckets[len(sr.buckets)-1]
		if last.labels["le"] != "+Inf" {
			t.Fatalf("%s{%s}: last bucket le=%q, want +Inf", f.name, key, last.labels["le"])
		}
		if last.value != *sr.count {
			t.Fatalf("%s{%s}: +Inf bucket %v != _count %v", f.name, key, last.value, *sr.count)
		}
	}
}

// sampleValue finds one sample by exact name and label subset.
func sampleValue(t *testing.T, families map[string]*promFamily, fam, name string, labels map[string]string) float64 {
	t.Helper()
	f, ok := families[fam]
	if !ok {
		t.Fatalf("family %s not in exposition", fam)
	}
outer:
	for _, s := range f.samples {
		if s.name != name {
			continue
		}
		for k, v := range labels {
			if s.labels[k] != v {
				continue outer
			}
		}
		return s.value
	}
	t.Fatalf("no sample %s%v in family %s", name, labels, fam)
	return 0
}

// mixedWorkload drives every data-path op at least once, plus one
// guaranteed failure, and returns how many requests succeeded.
func mixedWorkload(t *testing.T, cl *Client) (served int) {
	t.Helper()
	ok := oker(t)
	ok(cl.Exec("CREATE TABLE obs (k INTEGER PRIMARY KEY, v TEXT)"))
	served++
	for i := 0; i < 8; i++ {
		ok(cl.Exec("INSERT INTO obs (k, v) VALUES (?, ?)", int64(i), fmt.Sprintf("v%d", i)))
		served++
	}
	for i := 0; i < 4; i++ {
		ok(cl.Query("SELECT v FROM obs WHERE k = ?", int64(i)))
		served++
	}
	ok(cl.Begin(false))
	ok(cl.Exec("INSERT INTO obs (k, v) VALUES (?, ?)", int64(100), "txn"))
	ok(cl.Commit())
	served += 3
	ok(cl.Begin(false))
	ok(cl.Exec("INSERT INTO obs (k, v) VALUES (?, ?)", int64(101), "gone"))
	ok(cl.Rollback())
	served += 3
	// One failure: must not enter the stage histograms.
	resp, err := cl.Exec("NONSENSE STATEMENT")
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if resp.OK {
		t.Fatalf("bogus SQL unexpectedly succeeded")
	}
	return served
}

// scrape parses one full exposition strictly.
func scrape(t *testing.T, srv *Server) map[string]*promFamily {
	t.Helper()
	var b strings.Builder
	srv.WritePrometheus(&b)
	return parseProm(t, b.String())
}

// TestPrometheusConformance parses the full exposition of a 2-shard
// tier strictly and checks the histogram families' internal
// consistency, the cross-family count invariants the stage-cut model
// promises, that the device families are typed, labelled per shard and
// monotone, and that write amplification can be derived from a scrape.
func TestPrometheusConformance(t *testing.T) {
	srv, addr := startServer(t, Options{Shards: 2})
	cl := dial(t, addr)
	served := mixedWorkload(t, cl)
	families := scrape(t, srv)

	for name, f := range families {
		if f.typ == "" {
			t.Errorf("family %s has HELP but no TYPE", name)
		}
		if f.help == "" {
			t.Errorf("family %s has empty HELP", name)
		}
	}
	for _, name := range []string{
		"xftl_stage_duration_seconds",
		"xftl_op_duration_seconds",
		"xftl_2pc_stage_duration_seconds",
		"xftl_ncq_command_seconds",
	} {
		f, ok := families[name]
		if !ok {
			t.Fatalf("exposition missing histogram family %s", name)
		}
		checkHistogram(t, f)
	}
	if _, ok := families["xftl_build_info"]; !ok {
		t.Fatalf("exposition missing xftl_build_info")
	}
	if v := sampleValue(t, families, "xftl_build_info", "xftl_build_info", nil); v != 1 {
		t.Fatalf("xftl_build_info = %v, want 1", v)
	}
	bi := families["xftl_build_info"].samples[0].labels
	for _, key := range []string{"go_version", "shards", "queue_depth"} {
		if bi[key] == "" {
			t.Errorf("xftl_build_info missing label %s (labels %v)", key, bi)
		}
	}

	// Count invariants. Every served data-path request lands in exactly
	// one op histogram; commit/rollback bypass admission, so its stage
	// count equals served minus finished-txn ops.
	servedTotal := sampleValue(t, families, "xftl_requests_served_total", "xftl_requests_served_total", nil)
	if servedTotal != float64(served) {
		t.Fatalf("xftl_requests_served_total = %v, want %d", servedTotal, served)
	}
	opCount := func(op string) float64 {
		return sampleValue(t, families, "xftl_op_duration_seconds",
			"xftl_op_duration_seconds_count", map[string]string{"op": op})
	}
	var opSum float64
	for _, op := range []string{OpQuery, OpExec, OpBegin, OpCommit, OpRollback} {
		opSum += opCount(op)
	}
	if opSum != servedTotal {
		t.Fatalf("sum of op histogram counts %v != served %v", opSum, servedTotal)
	}
	stageCount := func(stage string) float64 {
		return sampleValue(t, families, "xftl_stage_duration_seconds",
			"xftl_stage_duration_seconds_count", map[string]string{"stage": stage})
	}
	wantAdm := servedTotal - opCount(OpCommit) - opCount(OpRollback)
	if got := stageCount("admission"); got != wantAdm {
		t.Fatalf("admission stage count %v, want %v", got, wantAdm)
	}
	if got := stageCount("other"); got != servedTotal {
		t.Fatalf("other stage count %v, want %v (every served request)", got, servedTotal)
	}

	// The device and session layers arrive as typed families: every
	// series of a family that is kept per shard says which shard, the
	// families the paper's tables are made of cover both members, and
	// nothing is squeezed through a dotted registry name any more.
	for name, f := range families {
		if f.typ == "summary" || strings.Contains(name, "stack_gauge") {
			t.Errorf("family %s (%s) is still exposed: the histograms and the typed families replace it", name, f.typ)
		}
	}
	perShard := map[string]string{
		"xftl_flash_page_writes_total": "counter", "xftl_flash_page_reads_total": "counter",
		"xftl_flash_block_erases_total": "counter", "xftl_gc_runs_total": "counter", "xftl_gc_copied_pages_total": "counter",
		"xftl_host_page_writes_total": "counter", "xftl_host_page_reads_total": "counter", "xftl_host_fsyncs_total": "counter",
		"xftl_tx_writes_total": "counter", "xftl_tx_commits_total": "counter", "xftl_tx_aborts_total": "counter",
		"xftl_tx_prepares_total": "counter", "xftl_table_images_total": "counter", "xftl_snapshot_reads_total": "counter",
		"xftl_xl2p_active_entries": "gauge", "xftl_pinned_pages": "gauge", "xftl_open_snapshots": "gauge",
		"xftl_cmd_retries_total": "counter", "xftl_cmd_timeouts_total": "counter", "xftl_ncq_in_flight": "gauge",
		"xftl_ncq_command_seconds": "histogram",
		"xftl_ftl_free_blocks":     "gauge", "xftl_quarantined_units": "gauge", "xftl_wear_spread": "gauge",
	}
	for name, typ := range perShard {
		f, ok := families[name]
		if !ok || f.typ != typ {
			t.Errorf("family %s: present=%v type %q, want %s", name, ok, f.typ, typ)
			continue
		}
		for _, shard := range []string{"0", "1"} {
			sampleValue(t, families, name, f.samples[0].name, map[string]string{"shard": shard})
		}
	}
	for _, class := range []string{"db", "journal", "fsmeta"} {
		sampleValue(t, families, "xftl_host_page_writes_total", "xftl_host_page_writes_total", map[string]string{"class": class})
	}
	for _, class := range []string{"read", "write", "barrier"} {
		sampleValue(t, families, "xftl_ncq_command_seconds", "xftl_ncq_command_seconds_count", map[string]string{"class": class})
	}
	for _, name := range []string{"xftl_readpool_hits_total", "xftl_readpool_misses_total",
		"xftl_readpool_evictions_total", "xftl_readpool_invalidations_total"} {
		sampleValue(t, families, name, name, map[string]string{"db": "serve.db"})
	}
	// One connection: every write transaction that changed a page was a
	// group of one, and the load made some.
	groups := sampleValue(t, families, "xftl_group_commits_total", "xftl_group_commits_total", map[string]string{"db": "serve.db"})
	if members := sampleValue(t, families, "xftl_group_members_total", "xftl_group_members_total", map[string]string{"db": "serve.db"}); groups == 0 || members != groups {
		t.Errorf("group commits %v carrying %v members, want equal and non-zero on one connection", groups, members)
	}
	dotted := []string{"ncq.", "ftl.", "nand.", "xftl.", "readpool.", "wal.", "fleet.", "shard0", "shard1"}
	for name, f := range families {
		sharded := 0
		for _, s := range f.samples {
			if _, ok := s.labels["shard"]; ok {
				sharded++
			}
			for _, v := range s.labels {
				for _, d := range dotted {
					if strings.Contains(v, d) {
						t.Errorf("%s: label value %q carries a dotted registry name", s.name, v)
					}
				}
			}
		}
		if sharded != 0 && sharded != len(f.samples) {
			t.Errorf("family %s: %d of %d series carry a shard label", name, sharded, len(f.samples))
		}
	}

	// Counters are monotone: more load, a second scrape, and no counter
	// series may have gone back — while the flash must have moved on.
	ok := oker(t)
	for i := 0; i < 20; i++ {
		ok(cl.Exec("INSERT INTO obs (k, v) VALUES (?, ?)", int64(200+i), "more"))
	}
	again := scrape(t, srv)
	home := map[string]string{"shard": strconv.Itoa(srv.Fleet().Route("serve.db"))}
	for name, f := range families {
		if f.typ != "counter" {
			continue
		}
		for _, s := range f.samples {
			if now := sampleValue(t, again, name, s.name, s.labels); now < s.value {
				t.Errorf("counter %s%v went from %v to %v", s.name, s.labels, s.value, now)
			}
		}
	}
	const flashWrites = "xftl_flash_page_writes_total"
	if sampleValue(t, again, flashWrites, flashWrites, home) <= sampleValue(t, families, flashWrites, flashWrites, home) {
		t.Errorf("%s%v did not grow under 20 more INSERTs", flashWrites, home)
	}

	// Write amplification from the scrape equals the stack's own
	// counters at quiescence: flash programs over host page writes.
	var hostWrites float64
	for _, class := range []string{"db", "journal", "fsmeta"} {
		hostWrites += sampleValue(t, again, "xftl_host_page_writes_total", "xftl_host_page_writes_total",
			map[string]string{"shard": home["shard"], "class": class})
	}
	st := srv.Stack()
	want := float64(st.FlashStats().Snapshot().PageWrites) / float64(st.Host.Snapshot().TotalWrites())
	if got := sampleValue(t, again, flashWrites, flashWrites, home) / hostWrites; hostWrites == 0 || got != want {
		t.Errorf("write amplification from the scrape = %v (host writes %v), from the stack's counters %v", got, hostWrites, want)
	}
}

// TestScrapeUnderLoad scrapes in a loop while a client writes: under
// the race detector this fails unless every series that reads firmware
// state samples it under the device's queue lock.
func TestScrapeUnderLoad(t *testing.T) {
	srv, addr := startServer(t, Options{})
	cl := dial(t, addr)
	ok := oker(t)
	ok(cl.Exec("CREATE TABLE load (k INTEGER PRIMARY KEY, v TEXT)"))

	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scraped <- n
				return
			default:
				srv.WritePrometheus(io.Discard)
				n++
			}
		}
	}()
	for i := 0; i < 300; i++ {
		ok(cl.Exec("INSERT INTO load (k, v) VALUES (?, ?)", int64(i), "row"))
	}
	close(stop)
	if n := <-scraped; n == 0 {
		t.Fatal("no scrape completed while the client wrote")
	}
}

// TestSlowCapture checks /debug/slow end to end: entries come back
// slowest-first with monotonic ids, and each breakdown sums to its wall
// latency to the microsecond.
func TestSlowCapture(t *testing.T) {
	srv, addr := startServer(t, Options{})
	cl := dial(t, addr)
	ok := oker(t)

	ok(cl.Exec("CREATE TABLE slow (k INTEGER PRIMARY KEY)"))
	for i := 0; i < slowCount+4; i++ { // more requests than the ring holds
		ok(cl.Exec("INSERT INTO slow (k) VALUES (?)", int64(i)))
	}
	resp := ok(cl.Query("SELECT COUNT(*) FROM slow"))
	if resp.ReqID == 0 {
		t.Fatalf("data-path response carries no req_id: %+v", resp)
	}
	ping := ok(cl.Ping())
	if ping.ReqID != 0 {
		t.Fatalf("ping minted a req_id: %+v", ping)
	}

	rec := httptest.NewRecorder()
	srv.MetricsMux().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slow", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("GET /debug/slow: %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var entries []SlowEntry
	if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil {
		t.Fatalf("/debug/slow: %v", err)
	}
	if len(entries) != slowCount {
		t.Fatalf("slow capture has %d entries, want %d", len(entries), slowCount)
	}
	for i, e := range entries {
		if e.ReqID == 0 {
			t.Errorf("entry %d: zero req id", i)
		}
		if i > 0 && e.WallUS > entries[i-1].WallUS {
			t.Errorf("entries not sorted slowest-first at %d: %d > %d", i, e.WallUS, entries[i-1].WallUS)
		}
		var sum int64
		for _, st := range e.Stages {
			sum += st.US
		}
		if sum != e.WallUS {
			t.Errorf("entry %d (req %d): stage sum %dµs != wall %dµs (stages %v)",
				i, e.ReqID, sum, e.WallUS, e.Stages)
		}
	}
}

// TestPerfettoReqIDLink drives writes on a stack with a tracer attached
// and asserts the exported Chrome trace links a server request span to
// the NAND programs it caused via the shared req id — the cross-layer
// attribution the request-id plumbing exists for.
func TestPerfettoReqIDLink(t *testing.T) {
	srv, addr := startServer(t, Options{})
	tr := trace.New()
	srv.Stack().AttachTracer(tr, "served")
	cl := dial(t, addr)
	ok := oker(t)
	ok(cl.Exec("CREATE TABLE tr (k INTEGER PRIMARY KEY, v TEXT)"))
	for i := 0; i < 8; i++ {
		ok(cl.Exec("INSERT INTO tr (k, v) VALUES (?, ?)", int64(i), strings.Repeat("x", 64)))
	}
	serverReqs, progReqs := exportReqLinks(t, tr)
	if len(linkedReqs(serverReqs, progReqs)) == 0 {
		t.Fatalf("no NAND program shares a req id with a server span (server %d ids, prog %d ids)",
			len(serverReqs), len(progReqs))
	}
}

// TestPerfettoReqIDLinkPerShard gives each member of a 2-shard tier its
// own tracer and writes to one database routed to each shard: every
// export links its own requests' spans to that shard's NAND programs,
// and no request appears in the other shard's export.
func TestPerfettoReqIDLinkPerShard(t *testing.T) {
	srv, addr := startServer(t, Options{Shards: 2})
	f := srv.Fleet()
	var dbs [2]string
	for i := 0; dbs[0] == "" || dbs[1] == ""; i++ {
		db := fmt.Sprintf("t%d.db", i)
		if sh := f.Route(db); dbs[sh] == "" {
			dbs[sh] = db
		}
	}
	var trs [2]*trace.Tracer
	for i := range trs {
		trs[i] = trace.New()
		f.Stacks()[i].AttachTracer(trs[i], fmt.Sprintf("shard %d", i))
	}
	cl := dial(t, addr)
	ok := oker(t)
	sent := [2]map[uint64]bool{{}, {}}
	for i, db := range dbs {
		r := ok(cl.Do(Request{Op: OpExec, DB: db, SQL: "CREATE TABLE tr (k INTEGER PRIMARY KEY, v TEXT)"}))
		sent[i][r.ReqID] = true
		for k := 0; k < 8; k++ {
			r := ok(cl.Do(Request{Op: OpExec, DB: db, SQL: "INSERT INTO tr (k, v) VALUES (?, ?)",
				Args: []any{int64(k), strings.Repeat("x", 64)}}))
			sent[i][r.ReqID] = true
		}
	}
	for i, tr := range trs {
		serverReqs, progReqs := exportReqLinks(t, tr)
		linked := linkedReqs(serverReqs, progReqs)
		if len(linked) == 0 {
			t.Fatalf("shard %d: no NAND program shares a req id with a server span", i)
		}
		for r := range linked {
			if !sent[i][r] {
				t.Fatalf("shard %d: linked req %d was not sent to %s", i, r, dbs[i])
			}
		}
		for r := range sent[1-i] {
			if serverReqs[r] || progReqs[r] {
				t.Fatalf("shard %d export carries req %d of the other shard's %s", i, r, dbs[1-i])
			}
		}
	}
}

// exportReqLinks exports tr as a Chrome trace and returns the req ids of
// its server request spans and of its NAND programs. The request spans
// must sit on one lane named "server requests".
func exportReqLinks(t *testing.T, tr *trace.Tracer) (serverReqs, progReqs map[uint64]bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}

	reqOf := func(args map[string]any) (uint64, bool) {
		v, ok := args["req"].(float64)
		if !ok {
			return 0, false
		}
		return uint64(v), true
	}
	serverReqs, progReqs = map[uint64]bool{}, map[uint64]bool{}
	serverLane := map[[2]int]bool{} // pid/tid of request spans
	laneNamed := false
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			if name, _ := ev.Args["name"].(string); name == "server requests" {
				laneNamed = true
			}
		case ev.Name == "request":
			if r, ok := reqOf(ev.Args); ok {
				serverReqs[r] = true
				serverLane[[2]int{ev.Pid, ev.Tid}] = true
			}
		case ev.Name == "nand-prog":
			if r, ok := reqOf(ev.Args); ok {
				progReqs[r] = true
			}
		}
	}
	if len(serverReqs) == 0 {
		t.Fatalf("no server request spans with req ids in export")
	}
	if !laneNamed {
		t.Fatalf("no 'server requests' thread metadata in export")
	}
	if len(serverLane) != 1 {
		t.Fatalf("request spans scattered over %d lanes, want 1", len(serverLane))
	}
	return serverReqs, progReqs
}

// linkedReqs returns the req ids carried by both a server span and a
// NAND program.
func linkedReqs(serverReqs, progReqs map[uint64]bool) map[uint64]bool {
	linked := map[uint64]bool{}
	for r := range progReqs {
		if serverReqs[r] {
			linked[r] = true
		}
	}
	return linked
}

// TestSlowRing exercises the ring's eviction directly: offers past
// capacity keep the slowest, and the snapshot sorts descending.
func TestSlowRing(t *testing.T) {
	r := newSlowRing(4)
	for i := 1; i <= 10; i++ {
		r.offer(&reqTrack{id: uint64(i)}, true, "", time.Duration(i*100)*time.Microsecond)
	}
	got := r.snapshot()
	if len(got) != 4 {
		t.Fatalf("ring holds %d entries, want 4", len(got))
	}
	for i, e := range got {
		want := int64((10 - i) * 100)
		if e.WallUS != want || e.ReqID != uint64(10-i) {
			t.Fatalf("entry %d: req %d wall %d, want req %d wall %d (slowest retained, descending)",
				i, e.ReqID, e.WallUS, 10-i, want)
		}
	}
	// A faster newcomer must not displace anything.
	r.offer(&reqTrack{id: 99}, true, "", time.Microsecond)
	if got := r.snapshot(); len(got) != 4 || got[3].WallUS != 700 {
		t.Fatalf("fast newcomer displaced a slow entry: %+v", got)
	}

	// Sub-microsecond stages still add up to the wall: each stage gets
	// the microseconds its cut carried the running sum across.
	rt := &reqTrack{id: 100}
	for i, ns := range []time.Duration{600, 0, 700, 800, 0} {
		rt.stages[i], rt.touched[i] = ns, ns > 0 || i == stageOther
	}
	r = newSlowRing(1)
	r.offer(rt, true, "", 2100*time.Nanosecond)
	e := r.snapshot()[0]
	want := []StageUS{{"admission", 0}, {"exec", 1}, {"commit", 1}, {"other", 0}}
	if e.WallUS != 2 || fmt.Sprint(e.Stages) != fmt.Sprint(want) {
		t.Fatalf("sub-µs stages => wall %dµs stages %v, want 2µs %v", e.WallUS, e.Stages, want)
	}
}
