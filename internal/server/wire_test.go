package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/sqlite"
)

// codec is one message type as checkLine holds it to encoding/json.
type codec[T any] struct {
	decode func([]byte, *T) error
	encode func([]byte, *T) ([]byte, error)
	// norm turns encoding/json's reading of a line into the codec's: a
	// request's integral args are int64.
	norm func(*T)
	// dirty is a line the codec accepts. Each checked line is also
	// decoded into the value this one left, which must not show through.
	dirty string
}

// requestCodec and responseCodec intern into their own tables, as a
// connection and a Client do.
func requestCodec() codec[Request] {
	texts := map[string]string{}
	return codec[Request]{
		decode: func(b []byte, r *Request) error { return decodeRequest(b, r, texts) },
		encode: appendRequest,
		norm: func(r *Request) {
			for i, a := range r.Args {
				if f, ok := a.(float64); ok && f == math.Trunc(f) && f >= math.MinInt64 && f < 1<<63 {
					r.Args[i] = int64(f)
				}
			}
		},
		dirty: `{"id":9,"op":"exec","sql":"UPDATE t SET a = ?","db":"d.db","args":[1,"x",null,true,2.5,6],` +
			`"deadline_ms":7,"readonly":true}`,
	}
}

func responseCodec() codec[Response] {
	texts := map[string]string{}
	return codec[Response]{
		decode: func(b []byte, r *Response) error { return decodeResponse(b, r, texts) },
		encode: appendDecoded,
		norm:   func(*Response) {},
		dirty: `{"id":9,"ok":true,"columns":["a","b","c","d","e"],"rows":[[1,"x",null,4,5],[2]],"affected":3,` +
			`"req_id":4,"error":"e","code":"c","retryable":true,"retry_after_ms":5,"stats":{"served":1},"slow":[{"op":"q"}]}`,
	}
}

// checkLine holds one line to the codec's contracts, with encoding/json
// as the reference, and reports whether the codec accepted it. Decode:
// a line the codec accepts, json.Unmarshal accepts too, into a value
// whose exported fields are DeepEqual (a Response also holds the
// decoder's room), and decoding it into a value an earlier line left
// gives the same. Encode: what encode writes for that value reads as
// json.Marshal's encoding of it does, and the codec reads it back the
// same.
func checkLine[T any](t *testing.T, line []byte, c codec[T]) bool {
	t.Helper()
	var got, want, dirty T
	if err := c.decode([]byte(c.dirty), &dirty); err != nil {
		t.Fatalf("dirty line %s: %v", c.dirty, err)
	}
	err := c.decode(line, &got)
	if dirtyErr := c.decode(line, &dirty); (err == nil) != (dirtyErr == nil) {
		t.Fatalf("%q: decoded fresh: %v, decoded over %s: %v", line, err, c.dirty, dirtyErr)
	}
	if err != nil {
		return false
	}
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("%q: the codec accepts it, encoding/json says %v", line, err)
	}
	c.norm(&want)
	if !reflect.DeepEqual(exported(&got), want) {
		t.Fatalf("%q: decoded\n%#v\nencoding/json\n%#v", line, exported(&got), want)
	}
	if !reflect.DeepEqual(exported(&dirty), want) {
		t.Fatalf("%q: decoded over %s as\n%#v\nencoding/json\n%#v", line, c.dirty, exported(&dirty), want)
	}

	out, err := c.encode(nil, &got)
	if errors.Is(err, errNeverSent) {
		return true
	}
	if err != nil {
		t.Fatalf("%q: encode %#v: %v", line, got, err)
	}
	viaJSON := readsAsMarshal(t, out, &got)
	c.norm(&viaJSON)
	var back T
	if err := c.decode(out, &back); err != nil || !reflect.DeepEqual(exported(&back), viaJSON) {
		t.Fatalf("%q: the codec reads its own %q as %#v (%v)", line, out, exported(&back), err)
	}
	return true
}

// exported is v with only its exported fields: what encoding/json
// reads and writes.
func exported[T any](v *T) T {
	var out T
	src, dst := reflect.ValueOf(v).Elem(), reflect.ValueOf(&out).Elem()
	for i := 0; i < src.NumField(); i++ {
		if src.Type().Field(i).IsExported() {
			dst.Field(i).Set(src.Field(i))
		}
	}
	return out
}

// readsAsMarshal checks that out is one line json.Unmarshal reads as it
// reads json.Marshal(ref), and returns that value.
func readsAsMarshal[T any](t *testing.T, out []byte, ref *T) T {
	t.Helper()
	if bytes.IndexByte(out, '\n') != len(out)-1 {
		t.Fatalf("encoded %q is not one line", out)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	var viaCodec, viaJSON T
	if err := json.Unmarshal(out, &viaCodec); err != nil {
		t.Fatalf("encoded %q is not JSON: %v", out, err)
	}
	if err := json.Unmarshal(want, &viaJSON); err != nil {
		t.Fatalf("json.Marshal's %q does not read back: %v", want, err)
	}
	if !reflect.DeepEqual(viaCodec, viaJSON) {
		t.Fatalf("encoded %q reads as\n%#v\njson.Marshal's %q as\n%#v", out, viaCodec, want, viaJSON)
	}
	return viaJSON
}

// errNeverSent marks a decoded value no sender writes.
var errNeverSent = errors.New("no sender writes this value")

// appendDecoded writes a decoded response as the server writes one: its
// columns and rows become the result set appendResponse writes from. A
// row holding a bool is never sent, since SQLite has no boolean value.
func appendDecoded(b []byte, r *Response) ([]byte, error) {
	if r.Columns == nil && r.Rows == nil {
		return appendResponse(b, r)
	}
	res := &sqlite.Rows{Columns: r.Columns}
	for _, row := range r.Rows {
		vals := make([]sqlite.Value, len(row))
		for i, v := range row {
			switch x := v.(type) {
			case nil:
				vals[i] = sqlite.Null
			case float64:
				vals[i] = sqlite.Real(x)
			case string:
				vals[i] = sqlite.Text(x)
			default:
				return b, errNeverSent
			}
		}
		res.Data = append(res.Data, vals)
	}
	r.resultCols, r.resultRows = res.Columns, res.Data
	return appendResponse(b, r)
}

// wireRequestCases and wireResponseCases seed the fuzz targets. Most
// of them break the grammar (doc.go) and are rejected; the rest are
// held to checkLine's contracts.
var wireRequestCases = []string{
	// The protocol reference (doc.go).
	`{"id":1,"op":"query","sql":"SELECT v FROM kv WHERE k = ?","args":[7]}`,
	`{"id":2,"op":"exec","sql":"UPDATE kv SET v = ? WHERE k = ?","args":[1,7],"deadline_ms":100}`,
	`{"op":"begin"}`, `{"op":"begin","readonly":true}`, `{"op":"commit"}`, `{"op":"rollback"}`,
	`{"op":"ping"}`, `{"op":"stats"}`, `{"op":"slow"}`, `{"op":"mystery","db":"other.db"}`,
	// Keys in another case, even folded per rune, are unknown keys.
	`{"op":"exec","Args":[1],"SQL":"x","Deadline_MS":3,"ReadOnly":true,"iD":4,"DB":"d"}`,
	`{"op":"ping","ſql":"long s","ſql":"long s again"}`,
	"{\"op\":\"ping\",\"\u0131d\":5,\"\u0130d\":6,\"\u212aEY\":7}", `{"op":"ping","\u0131d":5,"I\u0044":6}`,
	// A repeated key, and null outside args: refused. [] is empty, not nil.
	`{"op":"ping","id":5,"id":null,"sql":"a","sql":null,"readonly":true,"readonly":null}`,
	`{"op":"exec","args":[1,2],"args":null}`, `{"op":"ping","op":"query","args":[1],"args":[[2]]}`,
	`{"op":"query","args":[]}`, `{"op":"query","args":[[],{}]}`,
	// Numbers: int64 inside args when integral, else float64; exact
	// integers elsewhere, in range.
	`{"op":"exec","args":[1.5,-0,0,1e3,1E-400,12345678901234567890,-1.25e+2]}`,
	`{"op":"exec","args":[1e400]}`, `{"op":"exec","args":[-1e400]}`,
	`{"id":18446744073709551615}`, `{"id":18446744073709551616}`, `{"id":-1}`, `{"id":-0}`,
	`{"id":1.0}`, `{"id":1e2}`, `{"deadline_ms":-0}`, `{"deadline_ms":-9223372036854775808}`,
	`{"deadline_ms":9223372036854775808}`,
	// Strings: escapes decode; invalid UTF-8, lone surrogates and bad
	// escapes are refused.
	"{\"sql\":\"\xff\xfe ok \xe2\x82\"}", `{"sql":"\ud800"}`, `{"sql":"\udc00😀"}`,
	`{"sql":"\ud800A\ud800\\u0041"}`, `{"sql":"a\"b\\c\/d\b\f\n\r\t\u0000é"}`,
	"{\"sql\":\"\xed\xa0\x80\"}", "{\"sql\":\"tab\there\"}", `{"sql":"\x"}`, `{"sql":"\u12"}`,
	`{"sql":"\u12g4"}`, "{\"sql\":\"<>&\u2028\u2029\"}",
	// Nested args and unknown members: refused.
	`{"op":"exec","args":[[1,[2,{"a":null,"a":[3]}]],{"b":[true,false]},"s",null]}`,
	`{"op":"ping","extra":{"a":[1,2,{"b":"c"}],"A":{}},"x":-1.5e-3,"y":null,"z":true}`,
	// The top level is one object, and nothing follows it.
	`null`, ` null `, `null x`, `{}`, `{} {}`, `[]`, `"x"`, `1`, ``, ` `, "\t{ \"op\" : \"ping\" }\r\n",
	// Type mismatches.
	`{"op":1}`, `{"readonly":"true"}`, `{"readonly":1}`, `{"args":{}}`, `{"args":"x"}`,
	`{"args":1}`, `{"sql":["x"]}`, `{"id":"1"}`, `{"id":true}`, `{"deadline_ms":{}}`,
	// Syntax.
	`{"op":"ping",}`, `{"op" "ping"}`, `{'op':1}`, `{"op":"ping"`, `{"args":[1,]}`, `{"args":[01]}`,
	`{"args":[1.]}`, `{"args":[.5]}`, `{"args":[-]}`, `{"args":[1e]}`, `{"args":[1e+]}`,
	`{"args":[tru]}`, `{"args":[nul]}`, `{"args":[nulll]}`, `{"op":"ping"}}`, `{,}`, `{"a"}`,
	`{"x":[1 2]}`, `{"x":{"a":1 "b":2}}`, `{"x":+1}`, `{"x":0x1}`, `{"x":NaN}`, `{"x":Infinity}`,
	// A surrogate pair, and deadline_ms at and past its bound.
	`{"sql":"\ud83d\ude00 \u00e9"}`, `{"deadline_ms":9223372036854}`, `{"deadline_ms":9223372036855}`,
}

var wireResponseCases = []string{
	`{"id":1,"ok":true,"affected":1,"req_id":9}`,
	`{"id":2,"ok":true,"columns":["v"],"rows":[["x"]]}`,
	`{"ok":false,"code":"overload","retryable":true,"retry_after_ms":5,"error":"server: overloaded, request shed (retry after 5ms)"}`,
	`{"ok":true,"columns":["k","v"],"rows":[[1,-0],[2.5,"t"],[null,true],[],null,[[1],{"a":[]}]]}`,
	`{"ok":true,"rows":[]}`, `{"ok":true,"columns":[]}`, `{"ok":true,"rows":[1]}`, `{"ok":true,"rows":{}}`,
	// Repeated keys and null elements: refused.
	`{"columns":["a","b"],"columns":["c",null]}`, `{"columns":["a","b"],"columns":["x"],"columns":["c",null]}`,
	`{"columns":["a","b"],"columns":[],"columns":["c",null]}`, `{"columns":[null]}`, `{"columns":[1]}`,
	`{"rows":[[1,2]],"rows":[[3]]}`, `{"rows":[[1]],"rows":null}`,
	// The stats and slow replies, handed to encoding/json as nested values.
	`{"ok":true,"stats":{"served":3,"failed":1,"breaker_open":true,"shards":[{"shard":1,"units":4}]}}`,
	`{"ok":true,"slow":[{"req_id":1,"op":"query","db":"serve.db","ok":true,"wall_us":5,"stages":[{"stage":"exec","us":4}]}]}`,
	`{"ok":true,"stats":null}`, `{"stats":{"served":1},"stats":{"failed":2}}`, `{"stats":{"served":1},"stats":null}`,
	`{"stats":5}`, `{"stats":{"served":"x"}}`, `{"slow":{}}`, `{"slow":[{"req_id":-1}]}`,
	`{"slow":[{"op":"a","wall_us":3}],"slow":[{"wall_us":4},{"op":"b"}]}`,
	// Folded keys (Kelvin sign for k, long s for s) are unknown keys.
	"{\"O\u212a\":true,\"REQ_ID\":4,\"\u017flow\":[],\"Retry_After_MS\":2,\"CODE\":\"busy\"}",
	`{"o\u212a":true,"\u0063ode":"busy","c\u006fde":"sql"}`,
	`{"ok":1}`, `{"ok":"true"}`, `{"affected":1.5}`, `{"req_id":-2}`, `{"error":null,"code":null}`,
}

// wireRequestExamples and wireResponseExamples are doc.go's examples:
// the codec must accept them.
var wireRequestExamples = []string{
	`{"id":1,"op":"query","sql":"SELECT v FROM kv WHERE k = ?","args":[7]}`,
	`{"id":2,"op":"exec","sql":"UPDATE kv SET v = ? WHERE k = ?","args":[1,7],"deadline_ms":100}`,
	`{"op":"begin"}`, `{"op":"begin","readonly":true}`, `{"op":"commit"}`, `{"op":"rollback"}`,
	`{"op":"ping"}`, `{"op":"stats"}`, `{"op":"slow"}`,
	`{"op":"exec","db":"b.db","sql":"INSERT INTO t VALUES (?, ?, ?)","args":["x",null,true]}`,
}

var wireResponseExamples = []string{
	`{"ok":true,"id":1,"columns":["v"],"rows":[["x"]],"req_id":41}`,
	`{"ok":true,"id":2,"affected":1,"req_id":42}`,
	`{"ok":false,"id":3,"req_id":43,"error":"server: overloaded","code":"overload","retryable":true,"retry_after_ms":5}`,
	`{"ok":false,"error":"bad request: wire: unknown key \"deadlinems\" at offset 22","code":"bad_request"}`,
}

func TestWireAcceptsExamples(t *testing.T) {
	req, resp := requestCodec(), responseCodec()
	for _, line := range wireRequestExamples {
		if !checkLine(t, []byte(line), req) {
			t.Errorf("request %s rejected", line)
		}
	}
	for _, line := range wireResponseExamples {
		if !checkLine(t, []byte(line), resp) {
			t.Errorf("response %s rejected", line)
		}
	}
}

func FuzzWireRequest(f *testing.F) {
	for _, c := range append(wireRequestCases, wireRequestExamples...) {
		f.Add([]byte(c))
	}
	req := requestCodec()
	f.Fuzz(func(t *testing.T, line []byte) {
		checkLine(t, line, req)
	})
}

func FuzzWireResponse(f *testing.F) {
	for _, c := range append(wireResponseCases, wireResponseExamples...) {
		f.Add([]byte(c))
	}
	resp := responseCodec()
	f.Fuzz(func(t *testing.T, line []byte) {
		checkLine(t, line, resp)
	})
}

// TestWireEncodesArgs holds appendRequest to the encode contract for
// every argument type a client binds, and refuses what JSON cannot
// carry.
func TestWireEncodesArgs(t *testing.T) {
	req := Request{ID: 3, Op: OpExec, SQL: "INSERT \"q\"\n", DB: "x.db", DeadlineMS: -1, Readonly: true, Args: []any{
		nil, true, false, "héllo \x00\x1f\"\\ <>&   \xff\xc3", int(-7), int32(8), int64(math.MaxInt64),
		uint32(math.MaxUint32), float32(0.1), float32(1e21), float32(1e-7), 0.1, 1e21, 1e20, 1e-6, 1e-7,
		math.Copysign(0, -1), 5e-324, math.MaxFloat64, 123456789.0, []byte(nil), []byte{}, []byte{0, 1, 254, 255},
	}}
	out, err := appendRequest(nil, &req)
	if err != nil {
		t.Fatalf("appendRequest: %v", err)
	}
	readsAsMarshal(t, out, &req)
	for _, bad := range []any{math.Inf(1), math.NaN(), float32(math.Inf(-1)), struct{}{}, uint64(1),
		[]any{1.5}, map[string]any{"k": 1}, sqlite.Int(1)} {
		if out, err := appendRequest(nil, &Request{Op: OpExec, Args: []any{bad}}); err == nil {
			t.Errorf("arg %#v encoded as %q, want an error", bad, out)
		}
	}
}

// TestWireEncodesRows holds appendResponse to the encode contract for a
// result written straight from its rows, against the rows as the server
// used to hand them to encoding/json.
func TestWireEncodesRows(t *testing.T) {
	rows := &sqlite.Rows{Columns: []string{"n", "i", "r", "t", "b"}}
	vals := []sqlite.Value{
		sqlite.Null, sqlite.Int(-5), sqlite.Int(math.MinInt64), sqlite.Real(0.1), sqlite.Real(1e21),
		sqlite.Real(1e-7), sqlite.Real(math.Copysign(0, -1)), sqlite.Real(5e-324), sqlite.Real(-123456789.5),
		sqlite.Text("héllo\x00\"\\\n<>& \xff"), sqlite.Text(""), sqlite.Blob(nil), sqlite.Blob([]byte{}),
		sqlite.Blob([]byte{0, 1, 2, 255}),
	}
	for i := 0; i < len(vals); i += 5 {
		rows.Data = append(rows.Data, vals[i:min(i+5, len(vals))])
	}
	ref := Response{ID: 4, OK: true, ReqID: 7, Columns: rows.Columns}
	for _, r := range rows.Data {
		row := []any{}
		for _, v := range r {
			switch v.Type() {
			case sqlite.TypeNull:
				row = append(row, nil)
			case sqlite.TypeInt:
				row = append(row, v.Int())
			case sqlite.TypeReal:
				row = append(row, v.Real())
			case sqlite.TypeBlob:
				row = append(row, v.Blob())
			default:
				row = append(row, v.Text())
			}
		}
		ref.Rows = append(ref.Rows, row)
	}
	for _, res := range []*sqlite.Rows{rows, {Columns: rows.Columns}} {
		if len(res.Data) == 0 {
			ref.Rows = nil
		}
		out, err := appendResponse(nil, &Response{ID: 4, OK: true, ReqID: 7, resultCols: res.Columns, resultRows: res.Data})
		if err != nil {
			t.Fatalf("appendResponse: %v", err)
		}
		readsAsMarshal(t, out, &ref)
	}

	inf := &sqlite.Rows{Columns: []string{"x"}, Data: [][]sqlite.Value{{sqlite.Text("1e999")}, {sqlite.Real(math.Inf(-1))}}}
	if err := rowsFinite(inf); err == nil {
		t.Fatalf("rowsFinite accepted -Inf")
	}
	if err := rowsFinite(rows); err != nil {
		t.Fatalf("rowsFinite: %v", err)
	}
}

// TestWireSpellings pins the spellings doc.go states the codec writes.
func TestWireSpellings(t *testing.T) {
	for _, c := range []struct {
		arg  any
		want string
	}{
		{0.1, "0.1"}, {1e21, "1e+21"}, {1e-7, "1e-07"}, {123456789.0, "1.23456789e+08"},
		{float32(0.1), "0.1"}, {math.Copysign(0, -1), "-0"},
		{"q\"\\\n\t\x01<é", `"q\"\\\u000a\u0009\u0001<é"`},
	} {
		got, err := appendArg(nil, c.arg)
		if err != nil || string(got) != c.want {
			t.Errorf("%#v written as %s (%v), want %s", c.arg, got, err, c.want)
		}
	}
}
