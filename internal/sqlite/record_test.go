package sqlite

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqlite/pager"
	"repro/internal/sqlite/sqlparse"
)

// refDecodeRecord and refCompareRecords are the record decoder and the
// index comparator as they were before they worked in place — decode by
// append from nil, compare by decoding both sides — verbatim. Kept as the
// references the in-place ones are checked against.
func refDecodeRecord(data []byte) ([]Value, error) {
	hdrLen, n := binary.Uvarint(data)
	if n <= 0 || uint64(n)+hdrLen > uint64(len(data)) {
		return nil, errBadRecord
	}
	hdr := data[n : n+int(hdrLen)]
	body := data[n+int(hdrLen):]
	var vals []Value
	for len(hdr) > 0 {
		st, m := binary.Uvarint(hdr)
		if m <= 0 {
			return nil, errBadRecord
		}
		hdr = hdr[m:]
		switch {
		case st == 0:
			vals = append(vals, Null)
		case st == 1:
			if len(body) < 1 {
				return nil, errBadRecord
			}
			vals = append(vals, Int(int64(int8(body[0]))))
			body = body[1:]
		case st == 2:
			if len(body) < 2 {
				return nil, errBadRecord
			}
			vals = append(vals, Int(int64(int16(binary.BigEndian.Uint16(body)))))
			body = body[2:]
		case st == 3:
			if len(body) < 4 {
				return nil, errBadRecord
			}
			vals = append(vals, Int(int64(int32(binary.BigEndian.Uint32(body)))))
			body = body[4:]
		case st == 4:
			if len(body) < 8 {
				return nil, errBadRecord
			}
			vals = append(vals, Int(int64(binary.BigEndian.Uint64(body))))
			body = body[8:]
		case st == 7:
			if len(body) < 8 {
				return nil, errBadRecord
			}
			vals = append(vals, Real(math.Float64frombits(binary.BigEndian.Uint64(body))))
			body = body[8:]
		case st >= 12 && st%2 == 0:
			ln := int((st - 12) / 2)
			if len(body) < ln {
				return nil, errBadRecord
			}
			b := make([]byte, ln)
			copy(b, body[:ln])
			vals = append(vals, Blob(b))
			body = body[ln:]
		case st >= 13:
			ln := int((st - 13) / 2)
			if len(body) < ln {
				return nil, errBadRecord
			}
			vals = append(vals, Text(string(body[:ln])))
			body = body[ln:]
		default:
			return nil, fmt.Errorf("%w: serial type %d", errBadRecord, st)
		}
	}
	return vals, nil
}

func refCompareRecords(a, b []byte) int {
	av, errA := refDecodeRecord(a)
	bv, errB := refDecodeRecord(b)
	if errA != nil || errB != nil {
		return compareBytes(a, b) // degraded but total order
	}
	n := min(len(av), len(bv))
	for i := 0; i < n; i++ {
		if c := Compare(av[i], bv[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(av) < len(bv):
		return -1
	case len(av) > len(bv):
		return 1
	default:
		return 0
	}
}

func sameValues(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.typ != y.typ || x.i != y.i || math.Float64bits(x.f) != math.Float64bits(y.f) || x.s != y.s || !bytes.Equal(x.b, y.b) {
			return false
		}
	}
	return true
}

// refEncodeRecord is EncodeRecord as it was while it built header and body
// in separate slices and joined them — five allocations a row — kept
// verbatim as the reference for the one-pass encoder.
func refEncodeRecord(vals []Value) []byte {
	var hdr, body []byte
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range vals {
		switch v.typ {
		case TypeNull:
			hdr = append(hdr, 0)
		case TypeInt:
			st, enc := refEncodeInt(v.i)
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

func refEncodeInt(v int64) (uint64, []byte) {
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

// The one-pass encoder writes the reference's bytes for random rows of
// every type: integers at and on both sides of each width's limits,
// strings on both sides of the lengths where a serial type's varint — and
// with enough columns the header length's — grows a byte.
func TestEncodeRecordMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	edges := []int64{0, math.MaxInt8, math.MinInt8, math.MaxInt16, math.MinInt16, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	lens := []int{0, 1, 56, 57, 58, 199, 8185, 8186}
	value := func() Value {
		switch rng.Intn(7) {
		case 0:
			return Null
		case 1:
			return Int(edges[rng.Intn(len(edges))] + int64(rng.Intn(3)) - 1) // wraps at the 64-bit limits: still an int64
		case 2:
			return Int(rng.Int63() >> uint(rng.Intn(64)) * int64(1-2*rng.Intn(2)))
		case 3:
			return Real(rng.NormFloat64())
		case 4:
			return Text(strings.Repeat("t", lens[rng.Intn(len(lens))]))
		case 5:
			return Blob(bytes.Repeat([]byte{0xB0}, lens[rng.Intn(len(lens))]))
		default:
			return Blob(nil)
		}
	}
	for i := 0; i < 3000; i++ {
		vals := make([]Value, rng.Intn(8)*rng.Intn(12)) // up to 77 columns: a two-byte header length
		for j := range vals {
			vals[j] = value()
		}
		got, want := EncodeRecord(vals), refEncodeRecord(vals)
		if !bytes.Equal(got, want) {
			t.Fatalf("row %d %v:\n got % x\nwant % x", i, vals, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("row %d: sized %d bytes for a %d-byte record", i, cap(got), len(got))
		}
	}
}

// randomRecords draws records over a small alphabet — so that pairs share
// prefixes and whole columns — of every type and integer width, then adds
// what EncodeRecord never writes: integers in wider serial types than they
// need, bodies with bytes left over, and truncated, extended and bit-flipped
// copies, most of them corrupt.
func randomRecords(rng *rand.Rand, n int) [][]byte {
	ints := []int64{0, 1, -1, 127, 128, -128, -129, 32767, 32768, 1 << 31, -(1 << 31) - 1, math.MaxInt64, math.MinInt64}
	reals := []float64{0, 1, -1, 0.5, 127, 128.5, math.Inf(1), math.NaN(), 1 << 31}
	texts := []string{"", "a", "ab", "abc", "b", "\x00", "row-1", "row-10"}
	value := func() Value {
		switch rng.Intn(5) {
		case 0:
			return Null
		case 1:
			return Int(ints[rng.Intn(len(ints))])
		case 2:
			return Real(reals[rng.Intn(len(reals))])
		case 3:
			return Text(texts[rng.Intn(len(texts))])
		default:
			return Blob([]byte(texts[rng.Intn(len(texts))]))
		}
	}
	var out [][]byte
	for len(out) < n {
		vals := make([]Value, rng.Intn(5))
		for i := range vals {
			vals[i] = value()
		}
		rec := EncodeRecord(vals)
		out = append(out, rec)
		switch rng.Intn(6) {
		case 0: // every integer as an 8-byte one
			hdr, body := []byte{}, []byte{}
			for _, v := range vals {
				if v.typ != TypeInt {
					v = Int(int64(len(hdr)))
				}
				hdr = append(hdr, 4)
				body = binary.BigEndian.AppendUint64(body, uint64(v.i))
			}
			out = append(out, append(append([]byte{byte(len(hdr))}, hdr...), body...))
		case 1:
			out = append(out, append(append([]byte{}, rec...), byte(rng.Intn(256))))
		case 2:
			out = append(out, rec[:rng.Intn(len(rec))])
		case 3:
			flipped := append([]byte{}, rec...)
			flipped[rng.Intn(len(flipped))] ^= 1 << uint(rng.Intn(8))
			out = append(out, flipped)
		}
	}
	return out
}

func TestDecodeRecordMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	accepted := 0
	var scratch []Value
	for _, rec := range randomRecords(rng, 4000) {
		want, werr := refDecodeRecord(rec)
		got, gerr := DecodeRecord(rec)
		if (werr == nil) != (gerr == nil) || !sameValues(got, want) {
			t.Fatalf("% x: decoded %v (%v), reference %v (%v)", rec, got, gerr, want, werr)
		}
		if werr != nil {
			continue
		}
		accepted++
		// The executor's decode: at least ncols values, NULL in the columns
		// the mask skips,
		ncols, skip := rng.Intn(8), rng.Uint64()
		if rng.Intn(4) == 0 {
			skip = 0
		}
		// over the row decoded before it, as a scan's scratch row is.
		got, err := decodeRecord(rec, ncols, skip, scratch)
		scratch = got
		if err != nil || len(got) != max(len(want), ncols) {
			t.Fatalf("% x into %d columns: %v (%v)", rec, ncols, got, err)
		}
		for i, v := range got {
			exp := Null
			if i < len(want) && skip&(1<<uint(i)) == 0 {
				exp = want[i]
			}
			if !sameValues([]Value{v}, []Value{exp}) {
				t.Fatalf("% x skipping %b: column %d is %v, want %v", rec, skip, i, v, exp)
			}
		}
	}
	if accepted < 2000 {
		t.Fatalf("only %d of the records were well-formed", accepted)
	}
}

func TestCompareRecordsMatchesReference(t *testing.T) {
	sign := func(c int) int { return min(max(c, -1), 1) }
	rng := rand.New(rand.NewSource(19))
	recs := randomRecords(rng, 600)
	corrupt := 0
	for _, r := range recs {
		if _, err := refDecodeRecord(r); err != nil {
			corrupt++
		}
	}
	if corrupt < 30 || corrupt > len(recs)/2 {
		t.Fatalf("%d of %d records corrupt: the pool is lopsided", corrupt, len(recs))
	}
	for _, a := range recs {
		for _, b := range recs {
			if got, want := CompareRecords(a, b), refCompareRecords(a, b); sign(got) != sign(want) {
				t.Fatalf("CompareRecords(% x, % x) = %d, reference %d", a, b, got, want)
			}
		}
	}
}

// FuzzDecodeRecord: whatever bytes the decoder is handed it must not
// panic, and what it accepts survives EncodeRecord — the re-encoding
// decodes to the same values and is its own re-encoding, though not
// always the input's bytes: a record may store an integer wider than it
// needs or carry bytes past its last column. The in-place comparator must
// hold its own against the same input.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(EncodeRecord(nil))
	f.Add(EncodeRecord([]Value{Null, Int(-7), Int(1 << 40), Real(2.5), Text("partsupp"), Blob([]byte{0, 1, 2})}))
	f.Add(EncodeRecord([]Value{Text(""), Blob(nil), Int(300)}))
	f.Add([]byte{2, 4, 4, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if c := CompareRecords(data, data); c != 0 {
			t.Fatalf("% x compares %d with itself", data, c)
		}
		vals, err := DecodeRecord(data)
		if err != nil {
			return
		}
		enc := EncodeRecord(vals)
		back, err := DecodeRecord(enc)
		if err != nil || !sameValues(back, vals) {
			t.Fatalf("% x decodes to %v, which re-encoded decodes to %v (%v)", data, vals, back, err)
		}
		if again := EncodeRecord(back); !bytes.Equal(again, enc) {
			t.Fatalf("% x re-encodes to % x, then to % x", data, enc, again)
		}
		if c := CompareRecords(data, enc); c != 0 {
			t.Fatalf("% x compares %d with its re-encoding % x", data, c, enc)
		}
	})
}

// FuzzRecordSplice: an UPDATE's new record, spliced from the stored one,
// is byte for byte what decoding the stored record, putting the SET values
// in, nulling the rowid alias and encoding the row again gives — the way
// every UPDATE was written before the splice. The input spells a table of
// one to eight columns, a stored row of at most that many (a short row
// reads NULL past its end), a rowid alias column or none, and new values
// for a random subset of columns: NULL, integers of every width and at the
// edges between widths, REALs, and TEXT and BLOB values up to overflow
// size. Stored records are appendRecord's, as every record this engine
// writes is. The splice reads no column it keeps: its row is decoded with
// every column skipped.
func FuzzRecordSplice(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		spec := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(spec)
		f.Add(spec)
	}
	// partsupp: the alias first, a REAL set, the comment kept
	f.Add([]byte{4, 5, 1, 0, 1, 42, 0, 1, 12, 0, 3, 8, 4, 2, 199, 0, 0, 0, 1, 3, 2, 0, 64})
	// a short row: an integer narrowed, NULL to REAL, an overflow-sized BLOB past its end
	f.Add([]byte{7, 3, 0, 2, 4, 0, 4, 0, 5, 1, 1, 1, 0, 1, 3, 4, 0, 0, 0, 1, 5, 0x11, 0xF0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, spec []byte) {
		g := specReader(spec)
		ncols := 1 + int(g.next()%8)
		stored := make([]Value, int(g.next())%(ncols+1))
		alias := int(g.next())%(ncols+1) - 1 // -1: no alias
		for i := range stored {
			stored[i] = g.value()
		}
		old := EncodeRecord(stored)
		set, news := make([]bool, ncols), make([]Value, ncols)
		for i := range set {
			if set[i] = g.next()%2 == 1; set[i] {
				news[i] = g.value()
			}
		}

		want, err := decodeRecord(old, ncols, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := decodeRecord(old, ncols, ^uint64(0), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, on := range set {
			if on {
				want[i], vals[i] = news[i], news[i]
			}
		}
		if alias >= 0 {
			want[alias] = Null
		}
		wantRec := appendRecord(nil, want)
		dst := append(make([]byte, 0, int(g.next())*4), 0xA5) // spliced behind a byte, into room or not
		got, err := spliceRecord(dst, old, vals, set, alias)
		if err != nil || got[0] != 0xA5 || !bytes.Equal(got[1:], wantRec) {
			t.Fatalf("stored %v, alias %d, set %v to %v:\nspliced % x (%v)\nwant      % x", stored, alias, set, news, got, err, wantRec)
		}
	})
}

// specReader hands out a fuzz input's bytes one at a time, zeros once it
// runs out.
type specReader []byte

func (g *specReader) next() byte {
	if len(*g) == 0 {
		return 0
	}
	b := (*g)[0]
	*g = (*g)[1:]
	return b
}

// value spells one column value.
func (g *specReader) value() Value {
	switch g.next() % 6 {
	case 0:
		return Null
	case 1: // shifted by 0 to 7 bytes: every width
		return Int(int64(int8(g.next())) << (8 * (g.next() % 8)))
	case 2: // the edges between widths
		edges := []int64{0, 127, 128, -128, -129, 32767, 32768, -32768, -32769,
			math.MaxInt32, math.MaxInt32 + 1, math.MinInt32, math.MinInt32 - 1, math.MaxInt64, math.MinInt64}
		return Int(edges[int(g.next())%len(edges)])
	case 3:
		return Real(float64(int8(g.next())) / 4)
	case 4:
		return Text(strings.Repeat(string(rune('a'+g.next()%26)), g.length()))
	default:
		return Blob(bytes.Repeat([]byte{g.next()}, g.length()))
	}
}

// length is a short length, or from 0xF0 on one past any page size.
func (g *specReader) length() int {
	n := int(g.next())
	if n >= 0xF0 {
		return n * 24
	}
	return n % 40
}

// TestPrunedSelectMatchesFullDecode runs a corpus of SELECTs — the shapes
// of integration_test.go and db_test.go — twice: as written, where each
// row decodes only the columns the statement reads, and with a WHERE
// conjunct that reads every column of every source and is always true, so
// nothing is pruned. The rows must be identical.
func TestPrunedSelectMatchesFullDecode(t *testing.T) {
	db := newEnv(t, pager.Off).open(t)
	defer db.Close()
	loadCorpus(t, db)
	for _, q := range selectCorpus {
		st, err := sqlparse.Parse(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		sel := st.(*sqlparse.Select)
		pruned, err := (&Stmt{db: db, ast: sel}).Query(q.args...)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		// AND (c IS NULL OR c IS NOT NULL) for every column of every source.
		full := *sel
		sources := []sqlparse.TableRef{}
		if sel.From != nil {
			sources = append(sources, *sel.From)
		}
		for _, j := range sel.Joins {
			sources = append(sources, j.Table)
		}
		for _, src := range sources {
			tbl, err := db.cat.table(src.Name)
			if err != nil {
				t.Fatal(err)
			}
			qual := src.Alias
			if qual == "" {
				qual = src.Name
			}
			for _, c := range tbl.Columns {
				ref := &sqlparse.ColumnRef{Table: qual, Column: c.Name}
				var always sqlparse.Expr = &sqlparse.Binary{Op: "OR",
					L: &sqlparse.IsNull{X: ref}, R: &sqlparse.IsNull{X: ref, Not: true}}
				if full.Where != nil {
					always = &sqlparse.Binary{Op: "AND", L: full.Where, R: always}
				}
				full.Where = always
			}
		}
		want, err := (&Stmt{db: db, ast: &full}).Query(q.args...)
		if err != nil {
			t.Fatalf("%s, reading every column: %v", q.sql, err)
		}
		if len(pruned.Data) != len(want.Data) || (len(sources) > 0 && len(want.Data) == 0) {
			t.Fatalf("%s: %d rows, %d reading every column", q.sql, len(pruned.Data), len(want.Data))
		}
		for i := range want.Data {
			if !sameValues(pruned.Data[i], want.Data[i]) {
				t.Fatalf("%s: row %d is %v, %v reading every column", q.sql, i, pruned.Data[i], want.Data[i])
			}
		}
	}
}

// loadCorpus creates and fills the tables selectCorpus reads.
func loadCorpus(t *testing.T, db *DB) {
	t.Helper()
	for _, ddl := range []string{
		`CREATE TABLE dept (id INTEGER PRIMARY KEY, name TEXT, floor INTEGER)`,
		`CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT, dept TEXT, dept_id INTEGER, salary REAL, note TEXT, badge BLOB)`,
		`CREATE INDEX emp_dept ON emp (dept)`,
		`CREATE TABLE sales (region TEXT, amount INTEGER, memo TEXT)`,
		`CREATE TABLE thumbs (id INTEGER PRIMARY KEY, img BLOB, tag TEXT)`,
	} {
		mustExec(t, db, ddl)
	}
	depts := []string{"ops", "sales", "lab"}
	for i, d := range depts {
		mustExec(t, db, `INSERT INTO dept VALUES (?, ?, ?)`, i+1, d, 10-i)
	}
	mustExec(t, db, `INSERT INTO dept VALUES (9, 'empty', NULL)`)
	for i := 1; i <= 40; i++ {
		var note any
		if i%3 != 0 {
			note = fmt.Sprintf("hello-%d", i)
		}
		mustExec(t, db, `INSERT INTO emp VALUES (?, ?, ?, ?, ?, ?, ?)`,
			i, fmt.Sprintf("e%02d", i), depts[i%3], i%3+1, float64(i)*1.5, note, []byte{byte(i), 0xFF})
		mustExec(t, db, `INSERT INTO sales VALUES (?, ?, ?)`, []string{"west", "east", "north"}[i%3], i*10, "m")
	}
	mustExec(t, db, `INSERT INTO thumbs VALUES (1, ?, 'big')`, bytes.Repeat([]byte{0xAB}, 5000)) // spills to overflow pages
	mustExec(t, db, `INSERT INTO thumbs VALUES (2, ?, 'small')`, []byte{1, 2, 3})
	// A row shorter than the column list, as one written before the table
	// grew would be: its missing columns read NULL.
	emp, err := db.cat.table("emp")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `BEGIN`)
	if err := emp.tree.Insert(77, EncodeRecord([]Value{Null, Text("short"), Text("ops")})); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `COMMIT`)
}

// selectCorpus is the SELECT shapes of integration_test.go and db_test.go
// over the tables of loadCorpus.
var selectCorpus = []struct {
	sql  string
	args []any
}{
	{`SELECT * FROM emp`, nil},
	{`SELECT * FROM emp WHERE id = ?`, []any{77}},
	{`SELECT * FROM thumbs`, nil},
	{`SELECT id FROM emp`, nil},
	{`SELECT rowid, name FROM emp WHERE rowid > 35`, nil},
	{`SELECT id, salary FROM emp ORDER BY id`, nil},
	{`SELECT name FROM emp WHERE id = ?`, []any{7}},
	{`SELECT name, salary FROM emp WHERE id = 77`, nil},
	{`SELECT name, note, badge FROM emp WHERE id = ?`, []any{4}},
	{`SELECT COUNT(*) FROM emp WHERE salary < ?`, []any{30}},
	{`SELECT COUNT(*), SUM(salary) FROM emp`, nil},
	{`SELECT COUNT(note), COUNT(*) FROM emp`, nil},
	{`SELECT COUNT(*) FROM emp WHERE dept = 'ops'`, nil},
	{`SELECT id FROM emp WHERE dept = 'ops'`, nil},
	{`SELECT id, note FROM emp WHERE dept = 'lab' AND salary > 20`, nil},
	{`SELECT COUNT(*) FROM emp WHERE id > 10 AND id <= 20`, nil},
	{`SELECT COUNT(*) FROM emp WHERE id BETWEEN 5 AND 7`, nil},
	{`SELECT id FROM emp ORDER BY id DESC LIMIT 3`, nil},
	{`SELECT id FROM emp ORDER BY salary DESC LIMIT 5 OFFSET 10`, nil},
	{`SELECT id FROM emp WHERE note LIKE 'hello-1%'`, nil},
	{`SELECT id FROM emp WHERE note IS NULL`, nil},
	{`SELECT id FROM emp WHERE note IS NOT NULL`, nil},
	{`SELECT id FROM emp WHERE dept IN ('ops','lab') ORDER BY id`, nil},
	{`SELECT id FROM emp WHERE dept NOT IN ('ops','lab') ORDER BY id`, nil},
	{`SELECT DISTINCT dept FROM emp ORDER BY dept`, nil},
	{`SELECT salary * 2 + 1, UPPER(name), LENGTH(note), name || '!' FROM emp`, nil},
	{`SELECT CASE WHEN salary > 30 THEN 'big' ELSE name END FROM emp`, nil},
	{`SELECT COALESCE(note, name) FROM emp`, nil},
	{`SELECT 1 + 1, 'x' || 'y'`, nil},
	{`SELECT img, LENGTH(img) FROM thumbs WHERE id = 1`, nil},
	{`SELECT tag FROM thumbs ORDER BY id`, nil},
	{`SELECT COUNT(*), SUM(amount) FROM sales WHERE region = 'west'`, nil},
	{`SELECT COUNT(DISTINCT region) FROM sales`, nil},
	{`SELECT region FROM sales GROUP BY region HAVING COUNT(*) > 2`, nil},
	{`SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY SUM(amount) DESC`, nil},
	{`SELECT COUNT(*) FROM emp GROUP BY dept ORDER BY COUNT(*), MIN(salary)`, nil},
	{`SELECT region FROM sales GROUP BY region HAVING SUM(amount) > 2700`, nil},
	{`SELECT COUNT(*) FROM emp, dept WHERE emp.dept_id = dept.id`, nil},
	{`SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept_id = d.id ORDER BY e.id`, nil},
	{`SELECT e.name, d.floor FROM emp e JOIN dept d ON e.dept_id = d.id WHERE d.name = 'lab' ORDER BY e.salary`, nil},
	{`SELECT d.name, COUNT(e.id) FROM dept d LEFT JOIN emp e ON e.dept_id = d.id GROUP BY d.id ORDER BY d.id`, nil},
	{`SELECT d.name, e.note FROM dept d LEFT JOIN emp e ON e.dept_id = d.id AND e.salary > 55 ORDER BY d.id, e.id`, nil},
}
