package server

import (
	"fmt"
	"strings"
	"testing"
)

// TestFleetRouting serves two databases from a 2-shard tier and checks
// each lands on its routed shard with the data isolated per database.
func TestFleetRouting(t *testing.T) {
	srv, addr := startServer(t, Options{Shards: 2})
	cl := dial(t, addr)
	ok := oker(t)

	ok(cl.Do(Request{Op: OpExec, DB: "a.db", SQL: "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)"}))
	ok(cl.Do(Request{Op: OpExec, DB: "b.db", SQL: "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)"}))
	ok(cl.Do(Request{Op: OpExec, DB: "a.db", SQL: "INSERT INTO kv VALUES (1, 'from-a')"}))
	ok(cl.Do(Request{Op: OpExec, DB: "b.db", SQL: "INSERT INTO kv VALUES (1, 'from-b')"}))

	ra := ok(cl.Do(Request{Op: OpQuery, DB: "a.db", SQL: "SELECT v FROM kv WHERE k = 1"}))
	rb := ok(cl.Do(Request{Op: OpQuery, DB: "b.db", SQL: "SELECT v FROM kv WHERE k = 1"}))
	if ra.Rows[0][0] != "from-a" || rb.Rows[0][0] != "from-b" {
		t.Fatalf("cross-database leak: a=%v b=%v", ra.Rows, rb.Rows)
	}

	// The databases live on their routed shards only.
	f := srv.Fleet()
	for _, db := range []string{"a.db", "b.db"} {
		shard := f.Route(db)
		for i, st := range f.Stacks() {
			if has := st.FS.Exists(db); has != (i == shard) {
				t.Fatalf("shard %d Exists(%s) = %v, routed to %d", i, db, has, shard)
			}
		}
	}

	// Transactions route by the begin request's DB.
	ok(cl.Do(Request{Op: OpBegin, DB: "a.db"}))
	ok(cl.Do(Request{Op: OpExec, SQL: "UPDATE kv SET v = 'txn-a' WHERE k = 1"}))
	ok(cl.Do(Request{Op: OpCommit}))
	ra = ok(cl.Do(Request{Op: OpQuery, DB: "a.db", SQL: "SELECT v FROM kv WHERE k = 1"}))
	if ra.Rows[0][0] != "txn-a" {
		t.Fatalf("txn on a.db: got %v", ra.Rows)
	}

	// Each shard's unit gauge is its own device's array; that every
	// device family carries both shard labels is TestWritePrometheus's.
	families := scrape(t, srv)
	for i, st := range f.Stacks() {
		_, units := st.Device.QuarantinePressure()
		got := sampleValue(t, families, "xftl_units", "xftl_units", map[string]string{"shard": fmt.Sprint(i)})
		if got != float64(units) || units == 0 {
			t.Fatalf("xftl_units{shard=%d} = %v, device has %d", i, got, units)
		}
	}
}

// TestWritePrometheus checks a 2-shard exposition carries the tier
// counters, each member's device families under its shard label, the
// default database's session layer, and the fleet's 2PC counters.
func TestWritePrometheus(t *testing.T) {
	srv, addr := startServer(t, Options{Shards: 2})
	cl := dial(t, addr)
	ok := oker(t)
	ok(cl.Do(Request{Op: OpExec, DB: "p.db", SQL: "CREATE TABLE t (a INTEGER)"}))

	var b strings.Builder
	srv.WritePrometheus(&b)
	out := b.String()
	home := fmt.Sprintf(`shard="%d",db="serve.db"`, srv.Fleet().Route("serve.db"))
	for _, want := range []string{
		"# TYPE xftl_requests_served_total counter",
		"# TYPE xftl_op_duration_seconds histogram",
		`xftl_op_duration_seconds_count{op="exec"} 1`,
		"# TYPE xftl_flash_page_writes_total counter",
		`xftl_flash_page_writes_total{shard="0"}`,
		`xftl_flash_page_writes_total{shard="1"}`,
		"# TYPE xftl_ftl_free_blocks gauge",
		`xftl_ncq_command_seconds_count{shard="1",class="barrier"}`,
		`xftl_breaker_open{shard="1"} 0`,
		"xftl_cross_tx_total 0",
		"xftl_readpool_hits_total{" + home + "}",
		"xftl_readpool_idle{" + home + "}",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "xftl_requests_served_total 1") {
		t.Fatalf("served counter not 1:\n%s", out)
	}
}
