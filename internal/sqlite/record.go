package sqlite

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Record encoding follows the shape of SQLite's record format: a header
// of serial-type varints (preceded by the header length) and a body of
// encoded column values. Serial types:
//
//	0        NULL
//	1..4     big-endian signed integers of 1, 2, 4, 8 bytes
//	7        IEEE-754 float64
//	>=12 even  BLOB of (st-12)/2 bytes
//	>=13 odd   TEXT of (st-13)/2 bytes
var errBadRecord = errors.New("sqlite: corrupt record")

// EncodeRecord serializes values into the record format.
func EncodeRecord(vals []Value) []byte { return appendRecord(nil, vals) }

// appendRecord appends the record of vals to dst. A first pass sizes header
// and body, so the record is at most the one allocation — none when dst has
// the room — and the second pass writes both parts where they belong.
func appendRecord(dst []byte, vals []Value) []byte {
	hdrLen, bodyLen := 0, 0
	for _, v := range vals {
		st, n := serialType(v)
		hdrLen += uvarintLen(st)
		bodyLen += n
	}
	dst, hdr, body := recordSpace(dst, hdrLen, bodyLen)
	for _, v := range vals {
		st, _ := serialType(v)
		hdr = binary.AppendUvarint(hdr, st)
		body = appendValue(body, st, v)
	}
	return dst
}

// recordSpace extends dst by a record of the given header and body sizes,
// growing it at most once, and returns the header — its length already
// written — and the body, both empty slices into the new room.
func recordSpace(dst []byte, hdrLen, bodyLen int) (grown, hdr, body []byte) {
	size := uvarintLen(uint64(hdrLen)) + hdrLen + bodyLen
	if cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, len(dst)+size), dst...)
	}
	out := dst[len(dst) : len(dst)+size]
	hdr = binary.AppendUvarint(out[:0], uint64(hdrLen))
	return dst[:len(dst)+size], hdr, out[len(hdr)+hdrLen:][:0]
}

// appendValue appends the body bytes of v, whose serial type is st.
func appendValue(body []byte, st uint64, v Value) []byte {
	switch {
	case v.typ == TypeText:
		return append(body, v.s...)
	case v.typ == TypeBlob:
		return append(body, v.b...)
	case st == 1:
		return append(body, byte(v.i))
	case st == 2:
		return binary.BigEndian.AppendUint16(body, uint16(v.i))
	case st == 3:
		return binary.BigEndian.AppendUint32(body, uint32(v.i))
	case st == 4:
		return binary.BigEndian.AppendUint64(body, uint64(v.i))
	case st == 7:
		return binary.BigEndian.AppendUint64(body, math.Float64bits(v.f))
	}
	return body
}

// spliceRecord appends to dst the record old becomes when each column i
// with set[i] takes the value vals[i] — appendRecord of old decoded into
// len(vals) columns, the set values put in and the rowid alias column
// nulled — without decoding the columns it keeps, as SQLite copies an
// untouched column. vals holds at least the columns old stores, as a
// decodeRecord of it does, and is read at the set positions alone. A set
// column is encoded from its value; the alias column is NULL; any other
// column old stores keeps its serial type and body bytes, and one past
// old's end is NULL. Every stored record is appendRecord's, so a kept
// column's bytes are what encoding its decoded value would give.
func spliceRecord(dst, old []byte, vals []Value, set []bool, alias int) ([]byte, error) {
	hdr, body, ok := splitRecord(old)
	if !ok {
		return nil, errBadRecord
	}
	hdrLen, bodyLen := 0, 0
	for i := range vals {
		st, n, _, _, err := splicedColumn(&hdr, &body, i, vals, set, alias)
		if err != nil {
			return nil, err
		}
		hdrLen += uvarintLen(st)
		bodyLen += n
	}
	dst, h, b := recordSpace(dst, hdrLen, bodyLen)
	hdr, body, _ = splitRecord(old)
	for i := range vals {
		st, _, kept, fresh, _ := splicedColumn(&hdr, &body, i, vals, set, alias)
		h = binary.AppendUvarint(h, st)
		if fresh {
			b = appendValue(b, st, vals[i])
		} else {
			b = append(b, kept...)
		}
	}
	return dst, nil
}

// splicedColumn takes column i of the old record off what is left of its
// header and body, and says what spliceRecord stores there: serial type
// st, n body bytes, and either the old bytes it keeps or, when fresh,
// vals[i] encoded.
func splicedColumn(hdr, body *[]byte, i int, vals []Value, set []bool, alias int) (st uint64, n int, kept []byte, fresh bool, err error) {
	if len(*hdr) > 0 {
		if st, kept, *hdr, *body, err = nextColumn(*hdr, *body); err != nil {
			return 0, 0, nil, false, err
		}
	}
	switch {
	case i == alias:
		return 0, 0, nil, false, nil
	case i < len(set) && set[i]:
		nst, n := serialType(vals[i])
		return nst, n, nil, true, nil
	}
	return st, len(kept), kept, false, nil
}

// serialType is the serial type a value encodes as and the body bytes it
// takes: an integer gets the narrowest of the four widths that holds it.
func serialType(v Value) (st uint64, n int) {
	switch v.typ {
	case TypeInt:
		switch {
		case v.i >= math.MinInt8 && v.i <= math.MaxInt8:
			return 1, 1
		case v.i >= math.MinInt16 && v.i <= math.MaxInt16:
			return 2, 2
		case v.i >= math.MinInt32 && v.i <= math.MaxInt32:
			return 3, 4
		}
		return 4, 8
	case TypeReal:
		return 7, 8
	case TypeText:
		return uint64(13 + 2*len(v.s)), len(v.s)
	case TypeBlob:
		return uint64(12 + 2*len(v.b)), len(v.b)
	}
	return 0, 0 // NULL
}

// uvarintLen is how many bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// splitRecord separates a record's header — its serial types — from its
// body.
func splitRecord(data []byte) (hdr, body []byte, ok bool) {
	hdrLen, n := binary.Uvarint(data)
	if n <= 0 || hdrLen > uint64(len(data)-n) {
		return nil, nil, false
	}
	return data[n : n+int(hdrLen)], data[n+int(hdrLen):], true
}

// nextColumn takes one column off a record: its serial type from the
// header, the bytes that hold it from the body, and what is left of both.
func nextColumn(hdr, body []byte) (st uint64, col, hdrRest, bodyRest []byte, err error) {
	st, m := binary.Uvarint(hdr)
	if m <= 0 {
		return 0, nil, nil, nil, errBadRecord
	}
	var ln uint64
	switch {
	case st <= 2:
		ln = st
	case st == 3:
		ln = 4
	case st == 4, st == 7:
		ln = 8
	case st >= 12:
		ln = (st - 12) / 2
	default:
		return 0, nil, nil, nil, fmt.Errorf("%w: serial type %d", errBadRecord, st)
	}
	if ln > uint64(len(body)) {
		return 0, nil, nil, nil, errBadRecord
	}
	return st, body[:ln], hdr[m:], body[ln:], nil
}

// columnValue materializes one column; text and blob bytes are copied out
// of col.
func columnValue(st uint64, col []byte) Value {
	switch {
	case st == 0:
		return Null
	case st == 1:
		return Int(int64(int8(col[0])))
	case st == 2:
		return Int(int64(int16(binary.BigEndian.Uint16(col))))
	case st == 3:
		return Int(int64(int32(binary.BigEndian.Uint32(col))))
	case st == 4:
		return Int(int64(binary.BigEndian.Uint64(col)))
	case st == 7:
		return Real(math.Float64frombits(binary.BigEndian.Uint64(col)))
	case st%2 == 0:
		return Blob(append([]byte{}, col...))
	default:
		return Text(string(col))
	}
}

// DecodeRecord parses a record into values.
func DecodeRecord(data []byte) ([]Value, error) { return decodeRecord(data, 0, 0, nil) }

// decodeRecord parses a record into at least ncols values — a row stored
// with fewer columns than its table has now reads NULL in the rest —
// leaving NULL too in each of the first 64 columns whose bit is set in
// skip: a column no expression reads is stepped over, not materialized.
// The values overwrite into where it has the room (its old content is
// gone either way); text and blob bytes are always fresh copies.
func decodeRecord(data []byte, ncols int, skip uint64, into []Value) ([]Value, error) {
	hdr, body, ok := splitRecord(data)
	if !ok {
		return nil, errBadRecord
	}
	n := 0 // serial types in the header: a varint ends in its one byte below 0x80
	for _, b := range hdr {
		if b < 0x80 {
			n++
		}
	}
	vals := nullRow(into, max(n, ncols))
	for i := 0; len(hdr) > 0; i++ {
		st, col, h, b, err := nextColumn(hdr, body)
		if err != nil {
			return nil, err
		}
		if skip&(1<<uint(i)) == 0 {
			vals[i] = columnValue(st, col)
		}
		hdr, body = h, b
	}
	return vals, nil
}

// wellFormed reports whether every column of a split record parses.
func wellFormed(hdr, body []byte) bool {
	for len(hdr) > 0 {
		var err error
		if _, _, hdr, body, err = nextColumn(hdr, body); err != nil {
			return false
		}
	}
	return true
}

// serialRank is rank of the type a well-formed serial type encodes.
func serialRank(st uint64) int {
	switch {
	case st == 0:
		return rank(TypeNull)
	case st < 12:
		return rank(TypeInt)
	case st%2 == 1:
		return rank(TypeText)
	default:
		return rank(TypeBlob)
	}
}

// CompareRecords orders two encoded records column-wise with SQLite
// value semantics; shorter records order before longer ones when equal
// on the shared prefix. Used as the index-tree comparator, so it compares
// in place: each record is first walked to see that it parses — one that
// does not degrades the pair to byte order, still a total order — then
// the two headers are walked in step.
func CompareRecords(a, b []byte) int {
	ah, ab, okA := splitRecord(a)
	bh, bb, okB := splitRecord(b)
	if !okA || !okB || !wellFormed(ah, ab) || !wellFormed(bh, bb) {
		return compareBytes(a, b)
	}
	for len(ah) > 0 && len(bh) > 0 {
		var sa, sb uint64
		var ca, cb []byte
		sa, ca, ah, ab, _ = nextColumn(ah, ab)
		sb, cb, bh, bb, _ = nextColumn(bh, bb)
		c := 0
		switch ra, rb := serialRank(sa), serialRank(sb); {
		case ra < rb:
			c = -1
		case ra > rb:
			c = 1
		case ra == rank(TypeInt):
			c = Compare(columnValue(sa, ca), columnValue(sb, cb)) // numeric: nothing is copied
		case ra > rank(TypeInt):
			c = compareBytes(ca, cb)
		}
		if c != 0 {
			return c
		}
	}
	switch {
	case len(bh) > 0:
		return -1
	case len(ah) > 0:
		return 1
	default:
		return 0
	}
}
