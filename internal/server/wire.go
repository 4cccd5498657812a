// The wire codec: the grammar doc.go states, written and read by hand
// on the data path. Encoding appends a message to a buffer its
// connection reuses. Decoding makes one pass over a line with no
// reflection into a message its connection reuses: keys and op names
// are matched in place, texts the connection has seen before are
// interned, a request's args decode into typed values in the request's
// room, and only the values a message carries are allocated: a text
// arg's bytes, and a reply's boxed values.
package server

import (
	"bufio"
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/sqlite"
)

// maxLine caps a request line. A line that fits the connection's read
// buffer is decoded where it lies; a longer one is gathered up to this
// cap. Past it the framing is lost, so the server answers and closes.
const maxLine = 1 << 20

var errLongLine = errors.New("request line longer than 1 MiB")

// maxRoom caps the values a connection keeps room for between requests,
// in its query result and in its request's args (256 KiB of each): a
// point read needs a handful, and one huge result or list of args does
// not pin its room for the connection's life.
const maxRoom = 1 << 12

// maxDeadlineMS is the largest deadline_ms a request may carry: the
// most milliseconds a time.Duration holds.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// readLine returns the next line. It is read in place when it fits br's
// buffer and gathered in *long otherwise, up to limit bytes (0: no
// limit). The line is valid until the next read.
func readLine(br *bufio.Reader, long *[]byte, limit int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	buf := append((*long)[:0], line...)
	for err == bufio.ErrBufferFull {
		if line, err = br.ReadSlice('\n'); limit > 0 && len(buf)+len(line) > limit {
			return nil, errLongLine
		}
		buf = append(buf, line...)
	}
	*long = buf
	if cap(buf) > maxLine {
		*long = nil // one huge line does not pin its buffer for the connection's life
	}
	return buf, err
}

// --- Encoding ---------------------------------------------------------

// appendRequest appends r as one line.
func appendRequest(b []byte, r *Request) ([]byte, error) {
	b = append(b, `{"op":`...)
	b = appendString(b, r.Op)
	if r.ID != 0 {
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, r.ID, 10)
	}
	if r.SQL != "" {
		b = append(b, `,"sql":`...)
		b = appendString(b, r.SQL)
	}
	if r.DB != "" {
		b = append(b, `,"db":`...)
		b = appendString(b, r.DB)
	}
	if len(r.Args) > 0 {
		b = append(b, `,"args":[`...)
		for i, a := range r.Args {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendArg(b, a); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	if r.DeadlineMS != 0 {
		b = append(b, `,"deadline_ms":`...)
		b = strconv.AppendInt(b, r.DeadlineMS, 10)
	}
	if r.Readonly {
		b = append(b, `,"readonly":true`...)
	}
	return append(b, '}', '\n'), nil
}

// appendResponse appends r as one line. A query's result is written
// straight from its rows.
func appendResponse(b []byte, r *Response) ([]byte, error) {
	var err error
	b = append(b, `{"ok":`...)
	b = strconv.AppendBool(b, r.OK)
	if r.ID != 0 {
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, r.ID, 10)
	}
	if len(r.resultCols) > 0 {
		b = append(b, `,"columns":[`...)
		for i, c := range r.resultCols {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, c)
		}
		b = append(b, ']')
	}
	if len(r.resultRows) > 0 {
		b = append(b, `,"rows":[`...)
		for i, row := range r.resultRows {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			for j, v := range row {
				if j > 0 {
					b = append(b, ',')
				}
				if b, err = appendValue(b, v); err != nil {
					return b, err
				}
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	if r.Affected != 0 {
		b = append(b, `,"affected":`...)
		b = strconv.AppendInt(b, r.Affected, 10)
	}
	if r.ReqID != 0 {
		b = append(b, `,"req_id":`...)
		b = strconv.AppendUint(b, r.ReqID, 10)
	}
	if r.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, r.Error)
	}
	if r.Code != "" {
		b = append(b, `,"code":`...)
		b = appendString(b, r.Code)
	}
	if r.Retryable {
		b = append(b, `,"retryable":true`...)
	}
	if r.RetryAfterMS != 0 {
		b = append(b, `,"retry_after_ms":`...)
		b = strconv.AppendInt(b, r.RetryAfterMS, 10)
	}
	return append(b, '}', '\n'), nil
}

// appendValue appends one result column.
func appendValue(b []byte, v sqlite.Value) ([]byte, error) {
	switch v.Type() {
	case sqlite.TypeNull:
		return append(b, "null"...), nil
	case sqlite.TypeInt:
		return strconv.AppendInt(b, v.Int(), 10), nil
	case sqlite.TypeReal:
		return appendFloat(b, v.Real(), 64)
	case sqlite.TypeBlob:
		return appendBytes(b, v.Blob()), nil
	default:
		return appendString(b, v.Text()), nil
	}
}

// appendArg appends a bind argument: one of the scalar types
// sqlite.FromGo binds.
func appendArg(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...), nil
	case bool:
		return strconv.AppendBool(b, x), nil
	case string:
		return appendString(b, x), nil
	case float64:
		return appendFloat(b, x, 64)
	case float32:
		return appendFloat(b, float64(x), 32)
	case int:
		return strconv.AppendInt(b, int64(x), 10), nil
	case int32:
		return strconv.AppendInt(b, int64(x), 10), nil
	case int64:
		return strconv.AppendInt(b, x, 10), nil
	case uint32:
		return strconv.AppendUint(b, uint64(x), 10), nil
	case []byte:
		return appendBytes(b, x), nil
	}
	return b, fmt.Errorf("server: cannot send a %T on the wire", v)
}

// appendBytes appends p as encoding/json does: base64, or null for nil.
func appendBytes(b, p []byte) []byte {
	if p == nil {
		return append(b, "null"...)
	}
	b = append(b, '"')
	return append(base64.StdEncoding.AppendEncode(b, p), '"')
}

// appendFloat writes f in strconv's shortest 'g' form (doc.go).
func appendFloat(b []byte, f float64, bits int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("server: %v cannot be sent as JSON", f)
	}
	return strconv.AppendFloat(b, f, 'g', -1, bits), nil
}

// appendString appends s quoted, escaping a quote or backslash with a
// backslash and a control character as \u00XX (doc.go). Invalid UTF-8
// becomes U+FFFD, as encoding/json makes it; HTML characters are not
// escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				b = append(append(b, s[start:i]...), "\ufffd"...)
				start = i + 1
			}
			i += size
			continue
		}
		if c >= 0x20 && c != '"' && c != '\\' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		if c < 0x20 {
			b = fmt.Appendf(b, `\u%04x`, c)
		} else {
			b = append(b, '\\', c)
		}
		i++
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// rowsFinite refuses a result the wire cannot carry: JSON has no
// spelling for an infinite or NaN REAL.
func rowsFinite(rows *sqlite.Rows) error {
	for i, row := range rows.Data {
		for j, v := range row {
			if v.Type() != sqlite.TypeReal {
				continue
			}
			if f := v.Real(); math.IsInf(f, 0) || math.IsNaN(f) {
				return fmt.Errorf("server: row %d column %d is %v, which JSON cannot carry", i, j, f)
			}
		}
	}
	return nil
}

// --- Decoding ---------------------------------------------------------

// Field names as the decoders match them; they must match the structs'
// json tags.
var (
	requestFields  = []string{"id", "op", "sql", "db", "args", "deadline_ms", "readonly"}
	responseFields = []string{"id", "ok", "columns", "rows", "affected", "req_id",
		"error", "code", "retryable", "retry_after_ms"}
	// wireOps are the op names a request decodes to without allocating.
	wireOps = []string{OpQuery, OpExec, OpBegin, OpCommit, OpRollback, OpPing}
)

// decodeRequest decodes one request line into r, overwriting every
// field of the request r held before and reusing its params' room. The
// args decode into params, not Args, and the sql and db strings are
// interned in texts.
func decodeRequest(line []byte, r *Request, texts map[string]string) error {
	params := r.params
	clear(params)
	*r = Request{params: params[:0]}
	d := decoder{b: line}
	for n := 0; d.next('{', '}', n); n++ {
		switch d.field(requestFields) {
		case "id":
			r.ID = d.uint()
		case "op":
			r.Op = d.str(wireOps)
		case "sql":
			r.SQL = d.intern(texts)
		case "db":
			r.DB = d.intern(texts)
		case "args":
			for n := 0; d.next('[', ']', n); n++ {
				r.params = append(r.params, d.value(true))
			}
		case "deadline_ms":
			if r.DeadlineMS = d.int(); r.DeadlineMS < 0 || r.DeadlineMS > maxDeadlineMS {
				d.fail("deadline_ms out of range")
			}
		case "readonly":
			r.Readonly = d.bool()
		}
	}
	return d.end()
}

// decodeResponse decodes one response line into r, overwriting every
// field of the response r held before. Columns and a first row of up to
// two values fill r's own room, and the column names are interned in
// texts.
func decodeResponse(line []byte, r *Response, texts map[string]string) error {
	*r = Response{}
	d := decoder{b: line}
	for n := 0; d.next('{', '}', n); n++ {
		switch d.field(responseFields) {
		case "id":
			r.ID = d.uint()
		case "ok":
			r.OK = d.bool()
		case "columns":
			r.Columns = d.strs(r.cols[:0], texts)
		case "rows":
			r.Rows = d.rows(r)
		case "affected":
			r.Affected = d.int()
		case "req_id":
			r.ReqID = d.uint()
		case "error":
			r.Error = d.str(nil)
		case "code":
			r.Code = d.str(nil)
		case "retryable":
			r.Retryable = d.bool()
		case "retry_after_ms":
			r.RetryAfterMS = d.int()
		}
	}
	return d.end()
}

// decoder walks one line. Its first error sticks: later steps do
// nothing, and end reports it.
type decoder struct {
	b    []byte
	i    int
	seen uint16 // the fields read so far, by index in their names list
	err  error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: %s at offset %d", what, d.i)
	}
}

// ws skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) ws() byte {
	for ; d.i < len(d.b); d.i++ {
		if c := d.b[d.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// end requires nothing but whitespace after the object.
func (d *decoder) end() error {
	if d.ws(); d.i < len(d.b) {
		d.fail("data after the object")
	}
	return d.err
}

// next steps through the members of an object or array, called with
// n = 0, 1, 2, … in turn. It consumes the open byte, the commas and
// the close byte, and reports whether member n follows.
func (d *decoder) next(open, close byte, n int) bool {
	if d.err != nil {
		return false
	}
	if n == 0 {
		if d.ws() != open {
			d.fail("expected " + string(open))
			return false
		}
		if d.i++; d.ws() != close {
			return true
		}
	} else {
		switch d.ws() {
		case ',':
			d.i++
			return true
		case close:
		default:
			d.fail("expected , or " + string(close))
			return false
		}
	}
	d.i++
	return false
}

// field reads a member's key and its colon, and returns the one of
// names the key spells exactly. An unknown or repeated key fails the
// line.
func (d *decoder) field(names []string) string {
	k := d.text()
	if d.ws() != ':' {
		d.fail("expected :")
		return ""
	}
	d.i++
	for i, name := range names {
		if string(k) == name && d.seen&(1<<i) == 0 {
			d.seen |= 1 << i
			return name
		}
	}
	d.fail(fmt.Sprintf("unknown or repeated key %.40q", k))
	return ""
}

// literal consumes word.
func (d *decoder) literal(word string) {
	if string(d.b[d.i:min(d.i+len(word), len(d.b))]) != word {
		d.fail("invalid literal")
		return
	}
	d.i += len(word)
}

// text reads a string token and returns its text: the line's own bytes,
// or a decoded copy when the token holds an escape. The token must be
// valid UTF-8.
func (d *decoder) text() []byte {
	if d.ws() != '"' {
		d.fail("expected a string")
		return nil
	}
	start, esc := d.i+1, false
	for d.i = start; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			raw := d.b[start:d.i]
			d.i++
			if !utf8.Valid(raw) {
				d.fail("invalid UTF-8 in a string")
				return nil
			}
			if esc {
				return d.unquote(raw)
			}
			return raw
		case c < 0x20:
			d.fail("control character in a string")
			return nil
		case c == '\\':
			esc = true
			if d.i++; d.i < len(d.b) && strings.IndexByte(`"\/bfnrt`, d.b[d.i]) >= 0 {
				continue
			}
			if d.i+4 < len(d.b) && d.b[d.i] == 'u' && hex4(d.b[d.i+1:]) >= 0 {
				d.i += 4
				continue
			}
			d.fail("invalid escape")
			return nil
		}
	}
	d.fail("unterminated string")
	return nil
}

// hex4 decodes the four hex digits b starts with, -1 if they are not.
func hex4(b []byte) rune {
	if n, err := strconv.ParseUint(string(b[:4]), 16, 16); err == nil {
		return rune(n)
	}
	return -1
}

// unquote decodes the escapes of a string token text has checked. A
// \u surrogate must be half of a pair: high, then low.
func (d *decoder) unquote(raw []byte) []byte {
	dst := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		if raw[i] != '\\' {
			dst = append(dst, raw[i])
			continue
		}
		i++ // to the escape's letter
		switch c := raw[i]; c {
		case 'u':
			r := hex4(raw[i+1:])
			i += 4
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if len(raw)-i > 6 && raw[i+1] == '\\' && raw[i+2] == 'u' {
					r2 = hex4(raw[i+3:])
				}
				if r = utf16.DecodeRune(r, r2); r == unicode.ReplacementChar {
					d.fail("unpaired surrogate in a string")
					return nil
				}
				i += 6
			}
			dst = utf8.AppendRune(dst, r)
		case 'b', 'f', 'n', 'r', 't':
			dst = append(dst, "\b\f\n\r\t"[strings.IndexByte("bfnrt", c)])
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// number reads a number token, checked against JSON's grammar.
func (d *decoder) number() []byte {
	d.ws()
	start := d.i
	next := func(set string) bool {
		if d.i < len(d.b) && strings.IndexByte(set, d.b[d.i]) >= 0 {
			d.i++
			return true
		}
		return false
	}
	digits := func() bool {
		n := 0
		for ; next("0123456789"); n++ {
		}
		return n > 0
	}
	next("-")
	ok := next("0") || digits()
	if ok && next(".") {
		ok = digits()
	}
	if ok && next("eE") {
		next("+-")
		ok = digits()
	}
	if !ok {
		d.fail("invalid number")
		return nil
	}
	return d.b[start:d.i]
}

// The typed readers take exactly their field's JSON type: null, or a
// value of another type, fails the line.

func (d *decoder) str(known []string) string {
	t := d.text()
	for _, k := range known {
		if string(t) == k {
			return k
		}
	}
	return string(t)
}

// A connection interns at most internCount texts of at most internLen
// bytes each, and drops them all when the table is full, as sqlite.DB
// drops its statement cache.
const (
	internCount = 64
	internLen   = 1 << 10
)

// intern reads a string as str does, and returns the one texts holds
// with the same spelling: a statement or name sent again is not copied.
func (d *decoder) intern(texts map[string]string) string {
	t := d.text()
	if s, ok := texts[string(t)]; ok {
		return s
	}
	s := string(t)
	if len(s) <= internLen {
		if len(texts) >= internCount {
			clear(texts)
		}
		texts[s] = s
	}
	return s
}

func (d *decoder) bool() bool {
	switch d.ws() {
	case 't':
		d.literal("true")
		return true
	case 'f':
		d.literal("false")
		return false
	}
	d.fail("expected a bool")
	return false
}

func (d *decoder) uint() uint64 {
	n, err := strconv.ParseUint(string(d.number()), 10, 64)
	if err != nil {
		d.fail("expected an unsigned integer")
	}
	return n
}

func (d *decoder) int() int64 {
	n, err := strconv.ParseInt(string(d.number()), 10, 64)
	if err != nil {
		d.fail("expected an integer")
	}
	return n
}

// scalars decodes a row of rows, appending to dst: [] is empty, not
// nil.
func (d *decoder) scalars(dst []any) []any {
	if dst == nil {
		dst = []any{}
	}
	for n := 0; d.next('[', ']', n); n++ {
		dst = append(dst, d.scalar())
	}
	return dst
}

// scalar decodes a string, number, bool or null as encoding/json
// decodes it into an interface: a number is a float64.
func (d *decoder) scalar() any {
	if c := d.ws(); c == 't' || c == 'f' {
		return d.bool()
	}
	switch v := d.value(false); v.Type() {
	case sqlite.TypeNull:
		return nil
	case sqlite.TypeReal:
		return v.Real()
	default:
		return v.Text()
	}
}

// value decodes a string, number, bool or null as the SQL value it
// binds: TEXT, REAL, INTEGER 1 or 0 (sqlite.Bool) or NULL. With ints, a
// number that holds an exact integral value is an INTEGER instead, so a
// bind parameter compares equal to an INTEGER column. The upper bound is
// exclusive: float64(MaxInt64) rounds up to 2^63, which int64 cannot
// hold.
func (d *decoder) value(ints bool) sqlite.Value {
	switch c := d.ws(); {
	case c == '"':
		return sqlite.Text(string(d.text()))
	case c == 't' || c == 'f':
		return sqlite.Bool(d.bool())
	case c == 'n':
		d.literal("null")
		return sqlite.Null
	case c != '-' && (c < '0' || c > '9'):
		d.fail("expected a string, number, bool or null")
		return sqlite.Null
	}
	f, err := strconv.ParseFloat(string(d.number()), 64)
	if err != nil {
		d.fail("number out of range")
	}
	if ints && f == math.Trunc(f) && f >= math.MinInt64 && f < 1<<63 {
		return sqlite.Int(int64(f))
	}
	return sqlite.Real(f)
}

// rows decodes a reply's rows, the first into r's room.
func (d *decoder) rows(r *Response) [][]any {
	rows := r.one[:0]
	for n := 0; d.next('[', ']', n); n++ {
		var room []any
		if n == 0 {
			room = r.vals[:0]
		}
		rows = append(rows, d.scalars(room))
	}
	return rows
}

func (d *decoder) strs(dst []string, texts map[string]string) []string {
	for n := 0; d.next('[', ']', n); n++ {
		dst = append(dst, d.intern(texts))
	}
	return dst
}
