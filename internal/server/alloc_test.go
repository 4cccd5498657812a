//go:build !race

package server

import (
	"testing"
	"time"

	"repro/internal/sqlite"
)

// TestServedRequestAllocs pins what a served request allocates, client
// and server together, over a warm loopback connection. The connection
// reuses its request and the typed args in it, its reply, query result,
// stage track and autocommit session, and both ends intern the texts
// they have seen, so the server allocates nothing: what is left is the
// Response the client returns (a ping's and an UPDATE's one) and for the
// point query the client's two boxed values.
func TestServedRequestAllocs(t *testing.T) {
	ok := oker(t)
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)
	ok(cl.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"))
	for k := 0; k < 64; k++ {
		ok(cl.Exec("INSERT INTO kv VALUES (?, ?)", 4200+k, k))
	}
	key := any(int64(4242)) // boxed once, as a caller that reuses its args does
	for _, c := range []struct {
		name string
		max  float64
		run  func() (*Response, error)
	}{
		{"ping", 1, cl.Ping},
		{"point query", 3, func() (*Response, error) { return cl.Query("SELECT k, v FROM kv WHERE k = ?", key) }},
		{"update", 1, func() (*Response, error) { return cl.Exec("UPDATE kv SET v = v + 1 WHERE k = ?", key) }},
	} {
		ok(c.run()) // warm: the statement cache, the intern tables, the args' room
		n := testing.AllocsPerRun(200, func() { ok(c.run()) })
		t.Logf("%s: %v allocations", c.name, n)
		if n > c.max {
			t.Errorf("a served %s allocates %v times, want at most %v", c.name, n, c.max)
		}
	}
}

// TestWireAllocs pins what the codec allocates on the data path: keys
// and op names are matched in place, and a message is appended to a
// warm buffer without allocating.
func TestWireAllocs(t *testing.T) {
	ping := []byte(`{"op":"ping","id":12,"deadline_ms":5}` + "\n")
	query := []byte(`{"op":"query","id":13,"sql":"SELECT k, v FROM kv WHERE k = ?","args":[4242]}` + "\n")
	var req Request
	texts := map[string]string{}
	if n := testing.AllocsPerRun(100, func() { _ = decodeRequest(ping, &req, texts) }); n != 0 {
		t.Errorf("decoding a ping allocates %v times, want 0", n)
	}
	// Into a warm request, with the SQL text interned and the number
	// decoded into the params' room: nothing.
	if n := testing.AllocsPerRun(100, func() { _ = decodeRequest(query, &req, texts) }); n != 0 {
		t.Errorf("decoding a query allocates %v times, want 0", n)
	}
	if req.SQL != "SELECT k, v FROM kv WHERE k = ?" || req.Args != nil || len(req.params) != 1 || req.params[0].Type() != sqlite.TypeInt || req.params[0].Int() != 4242 {
		t.Fatalf("decoded %q as %+v", query, req)
	}
	resp := &Response{ID: 13, OK: true, ReqID: 99,
		resultCols: []string{"k", "v"},
		resultRows: [][]sqlite.Value{{sqlite.Int(4242), sqlite.Text("value")}},
	}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() { buf, _ = appendResponse(buf[:0], resp) }); n != 0 {
		t.Errorf("encoding a query response allocates %v times, want 0", n)
	}
	req = Request{ID: 13, Op: OpQuery, SQL: "SELECT k, v FROM kv WHERE k = ?", Args: []any{int64(4242)}}
	if n := testing.AllocsPerRun(100, func() { buf, _ = appendRequest(buf[:0], &req) }); n != 0 {
		t.Errorf("encoding a query allocates %v times, want 0", n)
	}

	// The client's side: what it decodes of each response.
	line := append([]byte(nil), buf...)
	line, _ = appendResponse(line[:0], resp)
	// The row, its columns and the rows fill the response's own room, and
	// the column names are interned: what is left is the row's values, a
	// boxed number and a string's bytes and box.
	var got Response
	if n := testing.AllocsPerRun(100, func() { _ = decodeResponse(line, &got, texts) }); n > 3 {
		t.Errorf("decoding a one-row query response allocates %v times, want at most 3", n)
	}
	if len(got.Rows) != 1 || got.Rows[0][1] != "value" {
		t.Fatalf("decoded %q as %+v", line, got)
	}
	pong := []byte(`{"ok":true,"id":14}` + "\n")
	if n := testing.AllocsPerRun(100, func() { _ = decodeResponse(pong, &got, texts) }); n != 0 {
		t.Errorf("decoding a ping response allocates %v times, want 0", n)
	}
}

// TestSlowRingFastOfferAllocatesNothing: once the ring is full of slower
// requests, offering a fast one builds no entry.
func TestSlowRingFastOfferAllocatesNothing(t *testing.T) {
	r := newSlowRing(4)
	rt := &reqTrack{id: 1}
	for i := range rt.touched {
		rt.touched[i] = true
	}
	for i := 0; i < 4; i++ {
		r.offer(rt, true, "", time.Second)
	}
	if n := testing.AllocsPerRun(100, func() { r.offer(rt, true, "", time.Millisecond) }); n != 0 {
		t.Fatalf("a fast offer to a full ring allocates %v times, want 0", n)
	}
	if got := r.snapshot(); len(got) != 4 || got[3].WallUS != time.Second.Microseconds() {
		t.Fatalf("fast offer changed the ring: %+v", got)
	}
}
