package sqlite

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
func EncodeRecord(vals []Value) []byte {
	var hdr, body []byte
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range vals {
		switch v.typ {
		case TypeNull:
			hdr = append(hdr, 0)
		case TypeInt:
			st, enc := encodeInt(v.i)
			n := binary.PutUvarint(tmp[:], st)
			hdr = append(hdr, tmp[:n]...)
			body = append(body, enc...)
		case TypeReal:
			n := binary.PutUvarint(tmp[:], 7)
			hdr = append(hdr, tmp[:n]...)
			var f [8]byte
			binary.BigEndian.PutUint64(f[:], math.Float64bits(v.f))
			body = append(body, f[:]...)
		case TypeText:
			st := uint64(13 + 2*len(v.s))
			n := binary.PutUvarint(tmp[:], st)
			hdr = append(hdr, tmp[:n]...)
			body = append(body, v.s...)
		case TypeBlob:
			st := uint64(12 + 2*len(v.b))
			n := binary.PutUvarint(tmp[:], st)
			hdr = append(hdr, tmp[:n]...)
			body = append(body, v.b...)
		}
	}
	n := binary.PutUvarint(tmp[:], uint64(len(hdr)))
	out := make([]byte, 0, n+len(hdr)+len(body))
	out = append(out, tmp[:n]...)
	out = append(out, hdr...)
	out = append(out, body...)
	return out
}

func encodeInt(v int64) (uint64, []byte) {
	switch {
	case v >= math.MinInt8 && v <= math.MaxInt8:
		return 1, []byte{byte(v)}
	case v >= math.MinInt16 && v <= math.MaxInt16:
		var b [2]byte
		binary.BigEndian.PutUint16(b[:], uint16(v))
		return 2, b[:]
	case v >= math.MinInt32 && v <= math.MaxInt32:
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(v))
		return 3, b[:]
	default:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v))
		return 4, b[:]
	}
}

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
func DecodeRecord(data []byte) ([]Value, error) { return decodeRecord(data, 0, 0) }

// decodeRecord parses a record into at least ncols values — a row stored
// with fewer columns than its table has now reads NULL in the rest —
// leaving NULL too in each of the first 64 columns whose bit is set in
// skip: a column no expression reads is stepped over, not materialized.
func decodeRecord(data []byte, ncols int, skip uint64) ([]Value, error) {
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
	vals := make([]Value, max(n, ncols))
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
