// The wire codec: one JSON object per line, written and read by hand on
// the data path.
//
// Encoding appends a message to a buffer its connection reuses. Decoding
// makes one pass over a line, with no reflection: keys and op names are
// matched in place, and only what the decoded value keeps (strings, the
// args and rows) is allocated. Both sides are held to encoding/json,
// which stays the reference:
//
//   - decode: decodeX accepts a line if and only if json.Unmarshal into
//     the same type accepts it, and the two values are reflect.DeepEqual;
//   - encode: json.Unmarshal(appendX(v)) equals
//     json.Unmarshal(json.Marshal(v)) for every value sent.
//
// FuzzWireRequest and FuzzWireResponse check both. The stats and slow
// payloads are not per request: they are handed to encoding/json as
// nested values.
package server

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
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
		var err error
		if b, err = appendArray(append(b, `,"args":`...), r.Args); err != nil {
			return b, err
		}
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
	cols := r.Columns
	if r.result != nil {
		cols = r.result.Columns
	}
	if len(cols) > 0 {
		b = append(b, `,"columns":[`...)
		for i, c := range cols {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, c)
		}
		b = append(b, ']')
	}
	switch {
	case r.result != nil && len(r.result.Data) > 0:
		b = append(b, `,"rows":[`...)
		for i, row := range r.result.Data {
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
	case r.result == nil && len(r.Rows) > 0:
		b = append(b, `,"rows":[`...)
		for i, row := range r.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendArray(b, row); err != nil {
				return b, err
			}
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
	if r.Stats != nil {
		if b, err = appendJSON(append(b, `,"stats":`...), r.Stats); err != nil {
			return b, err
		}
	}
	if len(r.Slow) > 0 {
		if b, err = appendJSON(append(b, `,"slow":`...), r.Slow); err != nil {
			return b, err
		}
	}
	return append(b, '}', '\n'), nil
}

// appendJSON appends a nested payload that is not per request.
func appendJSON(b []byte, v any) ([]byte, error) {
	p, err := json.Marshal(v)
	return append(b, p...), err
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

// appendAny appends a bind argument, or a value a decoder produced: the
// types sqlite.FromGo binds, and JSON's arrays and objects.
func appendAny(b []byte, v any) ([]byte, error) {
	var err error
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
	case []any:
		return appendArray(b, x)
	case map[string]any:
		if x == nil {
			return append(b, "null"...), nil
		}
		b = append(b, '{')
		first := true
		for k, e := range x {
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(appendString(b, k), ':')
			if b, err = appendAny(b, e); err != nil {
				return b, err
			}
		}
		return append(b, '}'), nil
	}
	return b, fmt.Errorf("server: cannot send a %T on the wire", v)
}

// appendArray appends a as encoding/json does: null for nil.
func appendArray(b []byte, a []any) ([]byte, error) {
	if a == nil {
		return append(b, "null"...), nil
	}
	var err error
	b = append(b, '[')
	for i, e := range a {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendAny(b, e); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// appendBytes appends p as encoding/json does: base64, or null for nil.
func appendBytes(b, p []byte) []byte {
	if p == nil {
		return append(b, "null"...)
	}
	b = append(b, '"')
	return append(base64.StdEncoding.AppendEncode(b, p), '"')
}

// appendFloat formats f as encoding/json does: the shortest 'f' form,
// 'e' outside [1e-6, 1e21) with a one-digit exponent not zero-padded.
func appendFloat(b []byte, f float64, bits int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("server: %v cannot be sent as JSON", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) ||
			bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendString appends s quoted. Invalid UTF-8 becomes U+FFFD, as
// encoding/json makes it; HTML characters are not escaped.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
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
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, `\n`...)
		case '\r':
			b = append(b, `\r`...)
		case '\t':
			b = append(b, `\t`...)
		default:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
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
		"error", "code", "retryable", "retry_after_ms", "stats", "slow"}
	// wireOps are the op names a request decodes to without allocating.
	wireOps = []string{OpQuery, OpExec, OpBegin, OpCommit, OpRollback, OpPing, OpStats, OpSlow}
)

// decodeRequest decodes one request line into r, which is zero.
func decodeRequest(line []byte, r *Request) error {
	d := decoder{b: line}
	for n := 0; d.top(n); n++ {
		switch d.field(requestFields) {
		case "id":
			d.uint(&r.ID)
		case "op":
			d.str(&r.Op, wireOps)
		case "sql":
			d.str(&r.SQL, nil)
		case "db":
			d.str(&r.DB, nil)
		case "args":
			d.anys(&r.Args)
		case "deadline_ms":
			d.int(&r.DeadlineMS)
		case "readonly":
			d.bool(&r.Readonly)
		default:
			d.any()
		}
	}
	return d.end()
}

// decodeResponse decodes one response line into r, which is zero.
func decodeResponse(line []byte, r *Response) error {
	d := decoder{b: line}
	for n := 0; d.top(n); n++ {
		switch d.field(responseFields) {
		case "id":
			d.uint(&r.ID)
		case "ok":
			d.bool(&r.OK)
		case "columns":
			d.strs(&r.Columns)
		case "rows":
			d.rows(&r.Rows)
		case "affected":
			d.int(&r.Affected)
		case "req_id":
			d.uint(&r.ReqID)
		case "error":
			d.str(&r.Error, nil)
		case "code":
			d.str(&r.Code, nil)
		case "retryable":
			d.bool(&r.Retryable)
		case "retry_after_ms":
			d.int(&r.RetryAfterMS)
		case "stats":
			d.nested(&r.Stats)
		case "slow":
			d.nested(&r.Slow)
		default:
			d.any()
		}
	}
	return d.end()
}

// decoder walks one line. Its first error sticks: later steps do
// nothing, and end reports it.
type decoder struct {
	b     []byte
	i     int
	depth int // open objects and arrays; encoding/json allows maxDepth
	err   error
}

const maxDepth = 10000

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: %s at offset %d", what, d.i)
	}
}

// ws skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) ws() byte {
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// end requires nothing but whitespace after the value.
func (d *decoder) end() error {
	if d.ws(); d.i < len(d.b) {
		d.fail("data after the value")
	}
	return d.err
}

// top steps through the members of the top-level object as next does.
// A top-level null has none: it decodes to the zero value.
func (d *decoder) top(n int) bool {
	if n > 0 {
		return d.next('}', n)
	}
	switch d.ws() {
	case '{':
		return d.next('}', 0)
	case 'n':
		d.literal("null")
	default:
		d.fail("expected an object")
	}
	return false
}

// next steps through the members of the object or array the decoder is
// at, called with n = 0, 1, 2, … in turn. It consumes the opening byte,
// the commas and the closing byte, and reports whether member n follows.
func (d *decoder) next(close byte, n int) bool {
	if d.err != nil {
		return false
	}
	if n == 0 {
		if d.depth++; d.depth > maxDepth {
			d.fail("nesting too deep")
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
	d.depth--
	return false
}

// key reads an object member's key and its colon.
func (d *decoder) key() []byte {
	k := d.text()
	if d.ws() != ':' {
		d.fail("expected :")
	}
	d.i++
	return k
}

// field reads a member's key and returns the name in names it matches,
// "" if none. encoding/json matches keys by bytes.EqualFold: "ARGS" and
// "ſql" (long s) are args and sql.
func (d *decoder) field(names []string) string {
	k := d.key()
	for _, name := range names {
		if strings.EqualFold(string(k), name) {
			return name
		}
	}
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
// or a decoded copy when the token holds an escape or invalid UTF-8.
func (d *decoder) text() []byte {
	if d.ws() != '"' {
		d.fail("expected a string")
		return nil
	}
	start, esc := d.i+1, false
	for d.i = start; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			if raw := d.b[start : d.i-1]; esc || !utf8.Valid(raw) {
				return appendUnquoted(nil, raw)
			} else {
				return raw
			}
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

// appendUnquoted appends the text of a string token text has checked, as
// encoding/json decodes it: invalid UTF-8 and lone surrogates become
// U+FFFD.
func appendUnquoted(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
			continue
		}
		if c != '\\' {
			dst = append(dst, c)
			i++
			continue
		}
		switch c = raw[i+1]; c {
		case 'b', 'f', 'n', 'r', 't':
			c = "\b\f\n\r\t"[strings.IndexByte("bfnrt", c)]
		case 'u':
			r := hex4(raw[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if len(raw)-i >= 6 && raw[i] == '\\' && raw[i+1] == 'u' {
					r2 = hex4(raw[i+2:])
				}
				if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
					i += 6
				}
			}
			dst = utf8.AppendRune(dst, r)
			continue
		}
		dst = append(dst, c)
		i += 2
	}
	return dst
}

// number reads a number token, checked against JSON's grammar.
func (d *decoder) number() []byte {
	b, i := d.b, d.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		d.fail("invalid value")
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			d.fail("invalid number")
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.fail("invalid number")
			return nil
		}
	}
	num := b[d.i:i]
	d.i = i
	return num
}

// The typed readers match encoding/json field by field: null leaves a
// string, number or bool as it was and sets a slice or pointer to nil,
// and a value of another JSON type than the field's rejects the line.

func (d *decoder) str(dst *string, known []string) {
	if d.ws() == 'n' {
		d.literal("null")
		return
	}
	t := d.text()
	for _, k := range known {
		if string(t) == k {
			*dst = k
			return
		}
	}
	*dst = string(t)
}

func (d *decoder) bool(dst *bool) {
	switch d.ws() {
	case 'n':
		d.literal("null")
	case 't':
		d.literal("true")
		*dst = true
	case 'f':
		d.literal("false")
		*dst = false
	default:
		d.fail("expected a bool")
	}
}

// integer reads the token of an integer field: nil for null.
func (d *decoder) integer() []byte {
	switch c := d.ws(); {
	case c == 'n':
		d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	default:
		d.fail("expected a number")
	}
	return nil
}

func (d *decoder) uint(dst *uint64) {
	if num := d.integer(); num != nil {
		if n, err := strconv.ParseUint(string(num), 10, 64); err == nil {
			*dst = n
		} else {
			d.fail("expected an unsigned integer")
		}
	}
}

func (d *decoder) int(dst *int64) {
	if num := d.integer(); num != nil {
		if n, err := strconv.ParseInt(string(num), 10, 64); err == nil {
			*dst = n
		} else {
			d.fail("expected an integer")
		}
	}
}

// array reports whether an array follows; false after a null.
func (d *decoder) array() bool {
	switch d.ws() {
	case '[':
		return true
	case 'n':
		d.literal("null")
	default:
		d.fail("expected an array")
	}
	return false
}

// anys decodes a []any: [] is empty, not nil.
func (d *decoder) anys(dst *[]any) {
	if *dst = nil; d.array() {
		a := make([]any, 0)
		for n := 0; d.next(']', n); n++ {
			a = append(a, d.any())
		}
		*dst = a
	}
}

func (d *decoder) rows(dst *[][]any) {
	if *dst = nil; d.array() {
		rows := make([][]any, 0)
		for n := 0; d.next(']', n); n++ {
			var row []any
			d.anys(&row)
			rows = append(rows, row)
		}
		*dst = rows
	}
}

// strs decodes a []string into *dst's storage as encoding/json does.
// A null element leaves its slot as it was, and within the slice's
// capacity that can be what an earlier duplicate key put there.
func (d *decoder) strs(dst *[]string) {
	s, n := *dst, 0
	if *dst = nil; !d.array() {
		return
	}
	for ; d.next(']', n); n++ {
		if n == len(s) {
			if n < cap(s) {
				s = s[:n+1]
			} else {
				s = append(s, "")
			}
		}
		d.str(&s[n], nil)
	}
	if n == 0 {
		s = make([]string, 0)
	}
	*dst = s[:n]
}

// nested hands a member that is not per request to encoding/json.
func (d *decoder) nested(dst any) {
	d.ws()
	start := d.i
	if d.any(); d.err == nil {
		if err := json.Unmarshal(d.b[start:d.i], dst); err != nil {
			d.err = err
		}
	}
}

// any decodes a value into what encoding/json puts in an interface:
// nil, bool, float64, string, []any or map[string]any. It also steps
// over members nobody reads.
func (d *decoder) any() any {
	switch d.ws() {
	case '{':
		m := map[string]any{}
		for n := 0; d.next('}', n); n++ {
			k := string(d.key())
			m[k] = d.any()
		}
		return m
	case '[':
		var a []any
		d.anys(&a)
		return a
	case '"':
		return string(d.text())
	case 't':
		d.literal("true")
		return true
	case 'f':
		d.literal("false")
		return false
	case 'n':
		d.literal("null")
		return nil
	}
	f, err := strconv.ParseFloat(string(d.number()), 64)
	if err != nil {
		d.fail("number out of range")
	}
	return f
}
