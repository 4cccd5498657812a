package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mvcc"
	"repro/internal/ncq"
	"repro/internal/shard"
	"repro/internal/storage"
)

// startServer builds a small server, starts it on a free port, and
// registers a shutdown cleanup.
func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	if opts.Channels == 0 {
		opts.Channels = 4
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return srv, addr.String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// oker returns a helper that fails the test unless a round trip
// succeeded: ok := oker(t); ok(cl.Ping()).
func oker(t *testing.T) func(*Response, error) *Response {
	return func(resp *Response, err error) *Response {
		t.Helper()
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if !resp.OK {
			t.Fatalf("request failed: %s (code %s)", resp.Error, resp.Code)
		}
		return resp
	}
}

func TestRoundTrip(t *testing.T) {
	ok := oker(t)
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)

	ok(cl.Ping())
	ok(cl.Exec("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)"))

	// Explicit transaction: two inserts, one commit.
	ok(cl.Begin(false))
	ok(cl.Exec("INSERT INTO t (k, v) VALUES (?, ?)", int64(1), "one"))
	ok(cl.Exec("INSERT INTO t (k, v) VALUES (?, ?)", int64(2), "two"))
	ok(cl.Commit())

	resp := ok(cl.Query("SELECT k, v FROM t ORDER BY k"))
	if len(resp.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(resp.Rows))
	}
	// JSON round-trips integers as float64 on the client side.
	if got := resp.Rows[1][1]; got != "two" {
		t.Fatalf("row[1].v = %v, want two", got)
	}

	// Rollback leaves no trace.
	ok(cl.Begin(false))
	ok(cl.Exec("INSERT INTO t (k, v) VALUES (?, ?)", int64(3), "three"))
	ok(cl.Rollback())
	resp = ok(cl.Query("SELECT COUNT(*) FROM t"))
	if got := resp.Rows[0][0].(float64); got != 2 {
		t.Fatalf("count after rollback = %v, want 2", got)
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Served == 0 || st.Admitted == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
	if st.Units != 4 || st.Quarantined != 0 {
		t.Fatalf("unit gauge = %d/%d, want 0/4", st.Quarantined, st.Units)
	}
}

// An integral JSON number in args decodes as an int64, but one at or
// beyond 2^63 has no int64: it stays a float64 instead of wrapping to
// MinInt64, where WHERE k = ? would match that row.
func TestNormalizeArgsBounds(t *testing.T) {
	var req Request
	line := `{"op":"query","args":[9223372036854775807,9223372036854775808,-9223372036854775808,42,42.0,4.2e1,-0,1.5]}`
	if err := decodeRequest([]byte(line), &req, map[string]string{}); err != nil {
		t.Fatal(err)
	}
	want := []any{float64(1 << 63), float64(1 << 63), int64(math.MinInt64), int64(42), int64(42), int64(42), int64(0), 1.5}
	if len(req.Args) != len(want) {
		t.Fatalf("decoded %d args, want %d", len(req.Args), len(want))
	}
	for i := range want {
		if req.Args[i] != want[i] {
			t.Errorf("arg %d: got %T %v, want %T %v", i, req.Args[i], req.Args[i], want[i], want[i])
		}
	}
}

func TestBadRequests(t *testing.T) {
	ok := oker(t)
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)

	resp, err := cl.Do(Request{Op: "mystery"})
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if resp.OK || resp.Code != "bad_request" || resp.Retryable {
		t.Fatalf("unknown op => %+v, want non-retryable bad_request", resp)
	}
	// Commit with no open transaction.
	resp, err = cl.Commit()
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if resp.OK || resp.Code != "bad_request" {
		t.Fatalf("stray commit => %+v, want bad_request", resp)
	}
	// SQL errors are fatal (non-retryable) with code "sql".
	resp, err = cl.Query("SELECT nope FROM nowhere")
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if resp.OK || resp.Code != "sql" || resp.Retryable {
		t.Fatalf("bad sql => %+v, want non-retryable sql", resp)
	}
	// A result JSON cannot carry (an infinite REAL) is a typed, counted
	// failure, not a dropped connection.
	before, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	resp, err = cl.Do(Request{ID: 77, Op: OpQuery, SQL: "SELECT 1e308*10"})
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if resp.OK || resp.Code != "sql" || resp.ID != 77 || resp.ReqID == 0 || !strings.Contains(resp.Error, "JSON cannot carry") {
		t.Fatalf("infinite result => %+v, want sql failure with id 77 and a req_id", resp)
	}
	after, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if after.Failed != before.Failed+1 {
		t.Fatalf("failed went %d -> %d, want one more", before.Failed, after.Failed)
	}
	// The connection survives failures.
	ok(cl.Ping())

	// Raw lines: a malformed one is answered and the connection serves
	// on; one longer than the read buffer is gathered; one past the cap
	// is answered, and then the connection closes.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatalf("deadline: %v", err)
	}
	br := bufio.NewReader(nc)
	reply := func() (r Response) {
		t.Helper()
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("read reply: %v", err)
		}
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("reply %q: %v", line, err)
		}
		return r
	}
	send := func(line string) Response {
		t.Helper()
		if _, err := io.WriteString(nc, line); err != nil {
			t.Fatalf("write: %v", err)
		}
		return reply()
	}
	if r := send(`{"op":"ping","id":` + "\n"); r.OK || r.Code != "bad_request" || r.ID != 0 {
		t.Fatalf("malformed line => %+v, want bad_request with id 0", r)
	}
	if r := send(`{"op":"ping","id":7}` + "\n"); !r.OK || r.ID != 7 {
		t.Fatalf("ping after a malformed line => %+v", r)
	}
	// Each line below breaks the grammar (doc.go) and is refused before
	// it runs, and the connection serves on.
	for _, line := range []string{
		`{"OP":"ping","id":3}`,
		`{"op":"ping","id":3,"op":"ping"}`,
		`{"op":"query","id":3,"sql":"SELECT 1","deadlinems":5}`,
		`null`,
		`{"op":"ping","id":null}`,
		`{"op":"query","id":3,"sql":"SELECT ?","args":[[1]]}`,
		`{"op":"query","id":3,"sql":"SELECT ?","args":[{}]}`,
		`{"op":"query","id":3,"sql":"SELECT '\ud800'"}`,
		"{\"op\":\"query\",\"id\":3,\"sql\":\"SELECT '\xff'\"}",
		`{"op":"query","id":3,"sql":"SELECT 1","deadline_ms":-5}`,
		`{"op":"query","id":3,"sql":"SELECT 1","deadline_ms":10000000000000}`,
		`{"op":"query","id":3,"sql":"SELECT 1","deadline_ms":` + strconv.FormatInt(maxDeadlineMS+1, 10) + `}`,
	} {
		if r := send(line + "\n"); r.OK || r.Code != "bad_request" || r.Retryable || r.ID != 0 {
			t.Fatalf("%q => %+v, want bad_request with id 0", line, r)
		}
		if r := send(`{"op":"ping","id":7}` + "\n"); !r.OK || r.ID != 7 {
			t.Fatalf("ping after %q => %+v", line, r)
		}
	}
	// deadline_ms runs up to the most milliseconds a time.Duration holds.
	if r := send(`{"op":"query","id":8,"sql":"SELECT 1","deadline_ms":` + strconv.FormatInt(maxDeadlineMS, 10) + "}\n"); !r.OK || r.ID != 8 {
		t.Fatalf("deadline_ms at its bound => %+v, want ok", r)
	}
	long := `{"op":"ping","id":8,"sql":"` + strings.Repeat("x", 200<<10) + `"}` + "\n"
	if r := send(long); !r.OK || r.ID != 8 {
		t.Fatalf("200 KiB line => %+v, want ok with id 8", r)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := io.WriteString(nc, `{"op":"ping","id":9,"sql":"`+strings.Repeat("x", maxLine)+`"}`+"\n")
		wrote <- err
	}()
	if r := reply(); r.OK || r.Code != "bad_request" || r.ID != 0 {
		t.Fatalf("over-long line => %+v, want bad_request with id 0", r)
	}
	if line, err := br.ReadBytes('\n'); err == nil {
		t.Fatalf("connection still open after an over-long line: read %q", line)
	}
	<-wrote // the server may close before taking the whole line: any outcome
}

// TestSnapshotIsolation: a readonly transaction pins its snapshot while
// a concurrent writer commits (MVCC mode).
func TestSnapshotIsolation(t *testing.T) {
	ok := oker(t)
	_, addr := startServer(t, Options{Mode: mvcc.MVCC})
	writer := dial(t, addr)
	reader := dial(t, addr)

	ok(writer.Exec("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)"))
	ok(writer.Exec("INSERT INTO t (k, v) VALUES (1, 10)"))

	ok(reader.Begin(true))
	resp := ok(reader.Query("SELECT v FROM t WHERE k = 1"))
	if got := resp.Rows[0][0].(float64); got != 10 {
		t.Fatalf("pre-update read = %v, want 10", got)
	}

	ok(writer.Exec("UPDATE t SET v = 20 WHERE k = 1"))

	// The pinned snapshot still sees the old value.
	resp = ok(reader.Query("SELECT v FROM t WHERE k = 1"))
	if got := resp.Rows[0][0].(float64); got != 10 {
		t.Fatalf("snapshot read = %v, want 10 (snapshot must not move)", got)
	}
	ok(reader.Commit())

	resp = ok(reader.Query("SELECT v FROM t WHERE k = 1"))
	if got := resp.Rows[0][0].(float64); got != 20 {
		t.Fatalf("post-commit read = %v, want 20", got)
	}
}

// TestAdmissionQueue exercises the gate directly: slots, bounded queue,
// shed past the bound, deadline expiry while queued.
func TestAdmissionQueue(t *testing.T) {
	a := newAdmission(1, 1)
	far := time.Now().Add(time.Minute)

	if err := a.acquire(far); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// Second acquire queues; wait until it is counted.
	queued := make(chan error, 1)
	go func() { queued <- a.acquire(far) }()
	for a.queued.Load() == 0 {
		runtime.Gosched()
	}
	// Third acquire finds the queue full: immediate overload shed with a
	// retry-after hint.
	err := a.acquire(far)
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("over-queue acquire = %v, want ErrOverload", err)
	}
	if hint, ok := RetryAfterHint(err); !ok || hint != shedRetryAfter {
		t.Fatalf("retry-after hint = %v/%v, want %v", hint, ok, shedRetryAfter)
	}
	if got := a.stats.Shed.Load(); got != 1 {
		t.Fatalf("shed count = %d, want 1", got)
	}

	// Release the slot: the queued waiter gets it.
	a.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}

	// A queued waiter whose deadline passes is dropped with ErrDeadline.
	err = a.acquire(time.Now().Add(20 * time.Millisecond))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired wait = %v, want ErrDeadline", err)
	}
	if got := a.stats.DeadlineDrops.Load(); got != 1 {
		t.Fatalf("deadline drops = %d, want 1", got)
	}
	a.release()
}

// TestOverloadEndToEnd saturates a 1-slot/1-queue server's admission
// gate and requires that a wire request is shed with an explicit,
// retryable overload response — then served normally once the gate
// frees up. The small gate is installed, and occupied, from inside the
// package so the test is deterministic on any core count (natural
// bursts fully serialize on a single CPU).
func TestOverloadEndToEnd(t *testing.T) {
	ok := oker(t)
	srv, err := New(Options{Channels: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.adm = newAdmission(1, 1)
	lis, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	cl := dial(t, lis.String())
	ok(cl.Exec("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)"))
	ok(cl.Exec("INSERT INTO t (k, v) VALUES (1, 0)"))

	// Occupy the slot, then fill the queue.
	far := time.Now().Add(time.Minute)
	if err := srv.adm.acquire(far); err != nil {
		t.Fatalf("take slot: %v", err)
	}
	waiter := make(chan error, 1)
	go func() { waiter <- srv.adm.acquire(far) }()
	for srv.adm.queued.Load() == 0 {
		runtime.Gosched()
	}

	// A wire request now finds slot busy + queue full: immediate shed,
	// not a queued wait.
	shedStart := time.Now()
	resp, err := cl.Exec("UPDATE t SET v = v + 1 WHERE k = 1")
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if resp.OK || resp.Code != "overload" || !resp.Retryable || resp.RetryAfterMS <= 0 {
		t.Fatalf("saturated gate => %+v, want retryable overload with hint", resp)
	}
	if waited := time.Since(shedStart); waited > time.Second {
		t.Fatalf("shed took %v — request queued instead of shedding", waited)
	}
	if got := srv.adm.stats.Shed.Load(); got == 0 {
		t.Fatalf("shed not counted")
	}

	// Free the gate: the same request now serves.
	srv.adm.release() // waiter takes the slot
	if err := <-waiter; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	srv.adm.release()
	ok(cl.Exec("UPDATE t SET v = v + 1 WHERE k = 1"))
	if got := srv.served.Load(); got == 0 {
		t.Fatalf("served not counted")
	}
}

// TestBusySurfacesRetryable: with the writer lock held by an open
// transaction, a concurrent write burns its budget and comes back as a
// retryable "busy" — the wire form of mvcc.ErrBusy.
func TestBusySurfacesRetryable(t *testing.T) {
	ok := oker(t)
	srv, addr := startServer(t, Options{})
	holder := dial(t, addr)
	ok(holder.Exec("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)"))
	ok(holder.Exec("INSERT INTO t (k, v) VALUES (1, 0)"))
	ok(holder.Begin(false)) // hold the writer lock

	blocked := dial(t, addr)
	resp, err := blocked.Do(Request{Op: OpExec,
		SQL: "UPDATE t SET v = 1 WHERE k = 1", DeadlineMS: 100})
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if resp.OK || resp.Code != "busy" || !resp.Retryable {
		t.Fatalf("write against held lock => %+v, want retryable busy", resp)
	}
	if srv.Manager().Stats.BusyTimeouts.Load() == 0 {
		t.Fatalf("busy timeout not counted by the mvcc layer")
	}
	ok(holder.Commit())
	ok(blocked.Exec("UPDATE t SET v = 1 WHERE k = 1"))
}

// TestBreakerDegradesWrites quarantines half the array and requires the
// write breaker to open: writes shed with "degraded", reads keep
// flowing, and the breaker closes again when pressure clears.
func TestBreakerDegradesWrites(t *testing.T) {
	ok := oker(t)
	srv, addr := startServer(t, Options{Channels: 4})
	cl := dial(t, addr)
	ok(cl.Exec("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)"))
	ok(cl.Exec("INSERT INTO t (k, v) VALUES (1, 1)"))

	dev := srv.Stack().Device
	if err := dev.QuarantineUnit(0); err != nil {
		t.Fatalf("quarantine 0: %v", err)
	}
	if err := dev.QuarantineUnit(1); err != nil {
		t.Fatalf("quarantine 1: %v", err)
	}
	if q, u := dev.QuarantinePressure(); q != 2 || u != 4 {
		t.Fatalf("pressure = %d/%d, want 2/4", q, u)
	}

	// Writes shed with a degraded hint; reads and readonly txns flow.
	resp, err := cl.Exec("UPDATE t SET v = 2 WHERE k = 1")
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if resp.OK || resp.Code != "degraded" || !resp.Retryable || resp.RetryAfterMS <= 0 {
		t.Fatalf("write under quarantine pressure => %+v, want retryable degraded with hint", resp)
	}
	ok(cl.Query("SELECT v FROM t WHERE k = 1"))
	ok(cl.Begin(true))
	ok(cl.Query("SELECT v FROM t WHERE k = 1"))
	ok(cl.Commit())

	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !st.BreakerOpen || st.BreakerTrips != 1 || st.DegradedSheds == 0 {
		t.Fatalf("breaker state not reflected in stats: %+v", st)
	}

	// Pressure clearing closes the breaker on the next admission: the
	// health reset below re-admits every unit.
	dev.Queue().Exclusive(func() { dev.FTL().ResetHealth() })
	ok(cl.Exec("UPDATE t SET v = 3 WHERE k = 1"))
	st, err = cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.BreakerOpen {
		t.Fatalf("breaker still open after pressure cleared: %+v", st)
	}
}

// TestGracefulDrain: the tier serves several clients' mixed point reads
// and updates while a flash unit is quarantined under them and the
// metrics listener is scraped, answering every request OK or with a
// typed retryable code; then shutdown refuses new connections, lets the
// open transaction run to commit, and drains without leaking
// goroutines.
func TestGracefulDrain(t *testing.T) {
	ok := oker(t)
	baseline := runtime.NumGoroutine()
	srv, err := New(Options{Channels: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	mlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("metrics listen: %v", err)
	}
	msrv := &http.Server{Handler: srv.MetricsMux()}
	go func() { _ = msrv.Serve(mlis) }() // returns ErrServerClosed at msrv.Close

	cl, err := Dial(addr.String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	const rows = 64
	ok(cl.Exec("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)"))
	ok(cl.Begin(false))
	for k := 0; k < rows; k++ {
		ok(cl.Exec("INSERT INTO t (k, v) VALUES (?, 0)", int64(k)))
	}
	ok(cl.Commit())

	// Traffic: a quarter of the requests are autocommit UPDATEs. The
	// request that completes half the total quarantines unit 0.
	const clients, perClient = 4, 50
	var (
		wg      sync.WaitGroup
		answers atomic.Int64
		served  atomic.Int64
	)
	retryable := map[string]bool{"overload": true, "degraded": true, "deadline": true, "busy": true}
	var pool [clients]*Client
	for i := range pool {
		if pool[i], err = Dial(addr.String()); err != nil {
			t.Fatalf("Dial client %d: %v", i, err)
		}
		defer pool[i].Close()
	}
	for i, c := range pool {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			for n := 0; n < perClient; n++ {
				k := int64((i*perClient + n*7) % rows)
				var resp *Response
				var err error
				if n%4 == 3 {
					resp, err = c.Exec("UPDATE t SET v = v + 1 WHERE k = ?", k)
				} else {
					resp, err = c.Query("SELECT v FROM t WHERE k = ?", k)
				}
				switch {
				case err != nil:
					t.Errorf("client %d request %d: %v", i, n, err)
					return
				case resp.OK:
					served.Add(1)
				case !resp.Retryable || !retryable[resp.Code]:
					t.Errorf("client %d request %d: fatal %s (%s)", i, n, resp.Error, resp.Code)
				}
				if answers.Add(1) == clients*perClient/2 {
					if err := srv.Stack().Device.QuarantineUnit(0); err != nil {
						t.Errorf("quarantine unit 0: %v", err)
					}
					if q, _ := srv.Stack().Device.QuarantinePressure(); q == 0 {
						t.Errorf("quarantine of unit 0 did not register")
					}
				}
			}
		}(i, c)
	}
	// Scrape while the clients run; no kept-alive connection may
	// outlive the scrape and count as a leak.
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for _, path := range []string{"/metrics", "/debug/slow"} {
		r, err := hc.Get("http://" + mlis.Addr().String() + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			continue
		}
		_, _ = io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s", path, r.Status)
		}
	}
	wg.Wait()
	if got := answers.Load(); got != clients*perClient {
		t.Fatalf("%d of %d requests answered", got, clients*perClient)
	}
	if served.Load() == 0 {
		t.Fatalf("no request served")
	}

	ok(cl.Begin(false))
	ok(cl.Exec("INSERT INTO t (k, v) VALUES (?, 1)", int64(rows)))

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown() }()

	// Wait for the drain to begin (listener closed => dial fails).
	for {
		if c, err := Dial(addr.String()); err != nil {
			break
		} else {
			// Accepted before the listener closed, or while racing it —
			// either way a fresh conn is torn down by the drain.
			c.Close()
		}
		time.Sleep(time.Millisecond)
	}

	// The in-flight transaction still runs statements and commits.
	ok(cl.Exec("INSERT INTO t (k, v) VALUES (?, 2)", int64(rows+1)))
	ok(cl.Commit())

	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !srv.Stack().Closed() {
		t.Fatalf("stack not closed after drain")
	}
	// Second shutdown is a no-op.
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	// The metrics listener is not part of the tier's drain guarantee:
	// it goes down before the leak check.
	if err := msrv.Close(); err != nil {
		t.Fatalf("metrics close: %v", err)
	}

	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("drain leaked %d goroutines", n-baseline)
	}
}

// TestDrainRollsBackAbandoned: a transaction still open when its
// connection dies is rolled back by the server, releasing the writer
// lock for everyone else.
func TestDrainRollsBackAbandoned(t *testing.T) {
	ok := oker(t)
	_, addr := startServer(t, Options{})
	ghost := dial(t, addr)
	ok(ghost.Exec("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)"))
	ok(ghost.Begin(false))
	ok(ghost.Exec("INSERT INTO t (k, v) VALUES (1, 1)"))
	ghost.Close() // connection dies with the transaction open

	// The server's cleanup rolls back, so a new writer acquires the lock
	// and sees none of the ghost's work.
	cl := dial(t, addr)
	var resp *Response
	var err error
	for i := 0; i < 100; i++ {
		resp, err = cl.Do(Request{Op: OpQuery,
			SQL: "SELECT COUNT(*) FROM t", DeadlineMS: 1000})
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if resp.OK {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !resp.OK {
		t.Fatalf("query after abandoned txn: %s (%s)", resp.Error, resp.Code)
	}
	if got := resp.Rows[0][0].(float64); got != 0 {
		t.Fatalf("abandoned txn leaked %v rows", got)
	}
}

// TestErrorTaxonomy pins the Classify mapping the wire protocol and
// clients depend on.
func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		err       error
		code      string
		retryable bool
	}{
		{ErrOverload, "overload", true},
		{ErrDeadline, "deadline", true},
		{ErrDegraded, "degraded", true},
		{ErrShuttingDown, "shutdown", true},
		{mvcc.ErrClosed, "shutdown", true},
		{mvcc.ErrBusy, "busy", true},
		{fmt.Errorf("begin: %w", mvcc.ErrBusy), "busy", true},
		{ncq.ErrCmdTimeout, "cmd_timeout", true},
		{storage.ErrWornOut, "worn_out", false},
		{ErrBadRequest, "bad_request", false},
		{errors.New("parse error near FROM"), "sql", false},
	}
	for _, tc := range cases {
		c := Classify(tc.err)
		if c.Code != tc.code || c.Retryable != tc.retryable {
			t.Errorf("Classify(%v) = {%s %v}, want {%s %v}",
				tc.err, c.Code, c.Retryable, tc.code, tc.retryable)
		}
	}

	// Retry-after wrapping preserves errors.Is and carries the hint.
	err := WithRetryAfter(ErrOverload, 7*time.Millisecond)
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("wrapped overload lost errors.Is identity")
	}
	if hint, ok := RetryAfterHint(fmt.Errorf("admission: %w", err)); !ok || hint != 7*time.Millisecond {
		t.Fatalf("hint through wrapping = %v/%v, want 7ms", hint, ok)
	}
	if _, ok := RetryAfterHint(ErrDeadline); ok {
		t.Fatalf("bare error should carry no hint")
	}
}

// TestAutocommitSessionReuse drives one connection through explicit
// transactions (committed, rolled back, read-only) between autocommit
// queries and UPDATEs, which all run on the connection's one reused
// session, while a second connection's autocommit UPDATEs and an
// embedded writer's run beside them. Every reply must match a model of
// the table, and an explicit transaction's session, once finished, must
// stay finished.
//
// The tier's writers poll for the writer lock with a busy budget, so
// they never queue behind each other; the embedded writer queues FIFO,
// which lets a served autocommit session defer its commit to it and
// wait in the manager's group — holding the connection's session until
// the group's commit(t) acknowledges it.
func TestAutocommitSessionReuse(t *testing.T) {
	srv, addr := startServer(t, Options{})
	a, b := dial(t, addr), dial(t, addr)
	// A busy reply applied nothing: send it again.
	do := func(run func() (*Response, error)) (*Response, error) {
		for {
			resp, err := run()
			if err != nil || resp.OK || resp.Code != "busy" {
				return resp, err
			}
		}
	}
	ok := oker(t)
	must := func(run func() (*Response, error)) *Response { return ok(do(run)) }
	exec := func(cl *Client, sql string, args ...any) func() (*Response, error) {
		return func() (*Response, error) { return cl.Exec(sql, args...) }
	}
	// a owns keys [0, aKeys), the embedded writer fifoKey, and b the
	// bRows keys from bFirst on, all of which each of b's UPDATEs writes:
	// a statement long enough for the embedded writer to queue behind.
	const aKeys, fifoKey, bFirst, bRows = 4, 4, 5, 256
	must(exec(a, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"))
	for k := 0; k < bFirst+bRows; k++ {
		must(exec(a, "INSERT INTO kv VALUES (?, 0)", k))
	}
	// valueOf reads k's v on a (autocommit outside a transaction).
	valueOf := func(k int) int64 {
		t.Helper()
		resp := must(func() (*Response, error) { return a.Query("SELECT v FROM kv WHERE k = ?", k) })
		if len(resp.Rows) != 1 || len(resp.Rows[0]) != 1 {
			t.Fatalf("k=%d read as %+v", k, resp.Rows)
		}
		return int64(resp.Rows[0][0].(float64))
	}

	// b and the embedded writer only write keys a never does, so a's
	// model is exact throughout.
	var bAcked, fifoAcked atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			w, err := srv.Fleet().Begin(srv.opts.DBName, false)
			if err == nil {
				_, err = w.Exec("UPDATE kv SET v = v + 1 WHERE k = ?", fifoKey)
				if err == nil {
					err = w.Commit()
				} else {
					_ = w.Rollback()
				}
			}
			if err != nil {
				t.Errorf("embedded writer: %v", err)
				return
			}
			fifoAcked.Add(1)
			// A polling writer finds the lock free only between the
			// embedded writer's transactions: leave it room.
			time.Sleep(100 * time.Microsecond)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := do(exec(b, "UPDATE kv SET v = v + 1 WHERE k >= ?", bFirst))
			if err != nil || !resp.OK || resp.Affected != bRows {
				t.Errorf("b's update: %+v %v", resp, err)
				return
			}
			bAcked.Add(1)
		}
	}()

	model := make([]int64, aKeys)
	var finished []*shard.Session
	for i := 0; i < 40; i++ {
		k := i % aKeys
		if resp := must(exec(a, "UPDATE kv SET v = v + 1 WHERE k = ?", k)); resp.Affected != 1 {
			t.Fatalf("autocommit update of k=%d affected %d rows", k, resp.Affected)
		}
		model[k]++
		if got := valueOf(k); got != model[k] {
			t.Fatalf("round %d: k=%d reads %d after an autocommit update, model %d", i, k, got, model[k])
		}

		readonly := i%3 == 2
		must(func() (*Response, error) { return a.Begin(readonly) })
		sess := openSession(t, srv)
		if !readonly {
			must(exec(a, "UPDATE kv SET v = v + 10 WHERE k = ?", k))
		}
		inside := model[k]
		if !readonly {
			inside += 10
		}
		if got := valueOf(k); got != inside {
			t.Fatalf("round %d: k=%d reads %d inside the transaction, want %d", i, k, got, inside)
		}
		if i%2 == 0 {
			ok(a.Commit())
			model[k] = inside
		} else {
			ok(a.Rollback())
		}
		finished = append(finished, sess)
		if got := valueOf(k); got != model[k] {
			t.Fatalf("round %d: k=%d reads %d after the transaction ended, model %d", i, k, got, model[k])
		}
	}
	close(stop)
	wg.Wait()

	for k := range model {
		if got := valueOf(k); got != model[k] {
			t.Errorf("k=%d ends at %d, model %d", k, got, model[k])
		}
	}
	resp := must(func() (*Response, error) {
		return a.Query("SELECT SUM(v) FROM kv WHERE k >= ?", bFirst)
	})
	if got := int64(resp.Rows[0][0].(float64)); got != bRows*bAcked.Load() {
		t.Errorf("b's keys sum to %d after %d acknowledged updates of %d rows", got, bAcked.Load(), bRows)
	}
	if got := valueOf(fifoKey); got != fifoAcked.Load() {
		t.Errorf("the embedded writer's key is %d, its acknowledged updates %d", got, fifoAcked.Load())
	}
	// Every request's finish went through the slow ring's lock after its
	// session ended: taking it orders those ends before the reads below.
	srv.Slow()
	st := &srv.Manager().Stats
	t.Logf("%d and %d updates beside a's; %d group commits carried %d write transactions",
		bAcked.Load(), fifoAcked.Load(), st.GroupCommits.Load(), st.GroupMembers.Load())
	for i, sess := range finished {
		for _, s := range finished[:i] {
			if s == sess {
				t.Fatalf("transaction %d ran on an earlier transaction's session", i)
			}
		}
		if _, err := sess.Query("SELECT 1"); !errors.Is(err, mvcc.ErrSessionDone) {
			t.Fatalf("transaction %d's session answers %v after it ended, want ErrSessionDone", i, err)
		}
	}
}

// openSession returns the session of the one connection with an open
// transaction.
func openSession(t *testing.T, srv *Server) *shard.Session {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for c := range srv.conns {
		if sess := c.curSess(); sess != nil {
			if sess == &c.auto {
				t.Fatalf("an explicit transaction runs on the connection's autocommit session")
			}
			return sess
		}
	}
	t.Fatalf("no connection has an open transaction")
	return nil
}
