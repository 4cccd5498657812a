package sqlite

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/sqlite/btree"
	"repro/internal/sqlite/pager"
	"repro/internal/sqlite/sqlparse"
)

// Schema errors.
var (
	ErrNoSuchTable   = errors.New("sqlite: no such table")
	ErrNoSuchIndex   = errors.New("sqlite: no such index")
	ErrNoSuchColumn  = errors.New("sqlite: no such column")
	ErrTableExists   = errors.New("sqlite: table already exists")
	ErrIndexExists   = errors.New("sqlite: index already exists")
	ErrConstraint    = errors.New("sqlite: constraint violation")
	ErrMisuse        = errors.New("sqlite: API misuse")
	ErrTxState       = errors.New("sqlite: transaction state error")
	ErrUnsupported   = errors.New("sqlite: unsupported SQL construct")
	ErrParamMismatch = errors.New("sqlite: wrong number of bound parameters")
)

// Column is one table column.
type Column struct {
	Name     string
	Affinity string // INTEGER, REAL, TEXT, BLOB or ""
	PK       bool
}

// Table is a catalogued table.
type Table struct {
	Name       string
	Columns    []Column
	Root       pager.Pgno
	RowidAlias int // column index aliasing the rowid (INTEGER PRIMARY KEY), -1 if none
	Indexes    []*Index

	tree        *btree.Tree
	masterRowid int64
	nextRowid   int64 // next auto rowid; 0 means unknown (lazy init)
}

// Index is a catalogued secondary index.
type Index struct {
	Name   string
	Table  string
	Cols   []int // positions into the table's Columns
	Unique bool
	Root   pager.Pgno

	tree        *btree.Tree
	masterRowid int64
}

// ColumnIndex finds a column position by name (case-insensitive).
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// catalog holds the schema, persisted in a master table whose root page
// is stored in the database header (the sqlite_master analogue).
type catalog struct {
	pg      *pager.Pager
	master  *btree.Tree
	tables  map[string]*Table // keys lower-cased
	indexes map[string]*Index
	stale   bool // the last reset could not reload the schema (see fresh)
	// gen is the schema's generation: every schema statement and every
	// reset moves it on, and a statement compiled under another generation
	// — against Tables that may be gone — compiles again before it runs.
	gen uint64
}

func newCatalog(pg *pager.Pager) (*catalog, error) {
	c := &catalog{
		pg:      pg,
		tables:  make(map[string]*Table),
		indexes: make(map[string]*Index),
		gen:     1,
	}
	if root := pg.SchemaRoot(); root != 0 {
		c.master = btree.OpenTable(pg, pager.Pgno(root))
		if err := c.load(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// ensureMaster creates the master table on first schema change; must be
// called inside a transaction.
func (c *catalog) ensureMaster() error {
	if c.master != nil {
		return nil
	}
	root, err := btree.CreateTable(c.pg)
	if err != nil {
		return err
	}
	if err := c.pg.SetSchemaRoot(uint32(root)); err != nil {
		return err
	}
	c.master = btree.OpenTable(c.pg, root)
	return nil
}

// master row layout: (kind, name, tblName, root, spec)
//   kind "table": spec = "name\x1fAFF\x1fpk;name\x1fAFF\x1fpk;..."
//   kind "index": spec = "col,col,...|U" (U when unique)

func encodeTableSpec(cols []Column) string {
	parts := make([]string, len(cols))
	for i, col := range cols {
		pk := "0"
		if col.PK {
			pk = "1"
		}
		parts[i] = col.Name + "\x1f" + col.Affinity + "\x1f" + pk
	}
	return strings.Join(parts, ";")
}

func decodeTableSpec(spec string) ([]Column, error) {
	if spec == "" {
		return nil, nil
	}
	var cols []Column
	for _, part := range strings.Split(spec, ";") {
		f := strings.Split(part, "\x1f")
		if len(f) != 3 {
			return nil, fmt.Errorf("sqlite: corrupt catalog spec %q", part)
		}
		cols = append(cols, Column{Name: f[0], Affinity: f[1], PK: f[2] == "1"})
	}
	return cols, nil
}

func encodeIndexSpec(cols []int, unique bool) string {
	parts := make([]string, len(cols))
	for i, v := range cols {
		parts[i] = fmt.Sprintf("%d", v)
	}
	s := strings.Join(parts, ",")
	if unique {
		s += "|U"
	}
	return s
}

func decodeIndexSpec(spec string) ([]int, bool, error) {
	unique := strings.HasSuffix(spec, "|U")
	spec = strings.TrimSuffix(spec, "|U")
	var cols []int
	for _, p := range strings.Split(spec, ",") {
		var v int
		if _, err := fmt.Sscanf(p, "%d", &v); err != nil {
			return nil, false, fmt.Errorf("sqlite: corrupt index spec %q", spec)
		}
		cols = append(cols, v)
	}
	return cols, unique, nil
}

// load scans the master table and builds the in-memory schema.
func (c *catalog) load() error {
	cur, err := c.master.SeekFirst()
	if err != nil {
		return err
	}
	type pendingIndex struct {
		rowid           int64
		name, tbl, spec string
		root            pager.Pgno
	}
	var pend []pendingIndex
	for cur.Valid() {
		rowid, err := cur.Rowid()
		if err != nil {
			return err
		}
		payload, err := cur.Payload()
		if err != nil {
			return err
		}
		vals, err := DecodeRecord(payload)
		if err != nil {
			return err
		}
		if len(vals) != 5 {
			return fmt.Errorf("sqlite: corrupt master row %d", rowid)
		}
		kind, name, tbl := vals[0].Text(), vals[1].Text(), vals[2].Text()
		root := pager.Pgno(vals[3].Int())
		spec := vals[4].Text()
		switch kind {
		case "table":
			cols, err := decodeTableSpec(spec)
			if err != nil {
				return err
			}
			t := &Table{Name: name, Columns: cols, Root: root, RowidAlias: -1, masterRowid: rowid}
			for i, col := range cols {
				if col.PK && col.Affinity == "INTEGER" {
					t.RowidAlias = i
					break
				}
			}
			t.tree = btree.OpenTable(c.pg, root)
			c.tables[strings.ToLower(name)] = t
		case "index":
			pend = append(pend, pendingIndex{rowid: rowid, name: name, tbl: tbl, spec: spec, root: root})
		}
		if err := cur.Next(); err != nil {
			return err
		}
	}
	for _, pi := range pend {
		cols, unique, err := decodeIndexSpec(pi.spec)
		if err != nil {
			return err
		}
		idx := &Index{Name: pi.name, Table: pi.tbl, Cols: cols, Unique: unique, Root: pi.root, masterRowid: pi.rowid}
		idx.tree = btree.OpenIndex(c.pg, pi.root, CompareRecords)
		c.indexes[strings.ToLower(pi.name)] = idx
		if t, ok := c.tables[strings.ToLower(pi.tbl)]; ok {
			t.Indexes = append(t.Indexes, idx)
		}
	}
	return nil
}

func (c *catalog) table(name string) (*Table, error) {
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return t, nil
}

// addMasterRow appends a catalog row and returns its rowid.
func (c *catalog) addMasterRow(kind, name, tbl string, root pager.Pgno, spec string) (int64, error) {
	if err := c.ensureMaster(); err != nil {
		return 0, err
	}
	maxID, err := c.master.MaxRowid()
	if err != nil {
		return 0, err
	}
	rowid := maxID + 1
	rec := EncodeRecord([]Value{Text(kind), Text(name), Text(tbl), Int(int64(root)), Text(spec)})
	return rowid, c.master.Insert(rowid, rec)
}

// define applies one schema statement (inside a transaction).
func (c *catalog) define(st sqlparse.Stmt) error {
	c.gen++
	var err error
	switch x := st.(type) {
	case *sqlparse.CreateTable:
		cols := make([]Column, len(x.Columns))
		for i, cd := range x.Columns {
			cols[i] = Column{Name: cd.Name, Affinity: cd.Type, PK: cd.PrimaryKey}
		}
		_, err = c.createTable(x.Name, cols, x.IfNotExists)
	case *sqlparse.CreateIndex:
		_, err = c.createIndex(x.Name, x.Table, x.Columns, x.Unique, x.IfNotExists)
	case *sqlparse.DropTable:
		err = c.dropTable(x.Name, x.IfExists)
	case *sqlparse.DropIndex:
		err = c.dropIndex(x.Name, x.IfExists)
	}
	return err
}

// createTable adds a table to the schema (inside a transaction).
func (c *catalog) createTable(name string, cols []Column, ifNotExists bool) (*Table, error) {
	if _, ok := c.tables[strings.ToLower(name)]; ok {
		if ifNotExists {
			return c.tables[strings.ToLower(name)], nil
		}
		return nil, fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	if err := c.ensureMaster(); err != nil {
		return nil, err
	}
	root, err := btree.CreateTable(c.pg)
	if err != nil {
		return nil, err
	}
	rowid, err := c.addMasterRow("table", name, name, root, encodeTableSpec(cols))
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, Columns: cols, Root: root, RowidAlias: -1, masterRowid: rowid, nextRowid: 1}
	for i, col := range cols {
		if col.PK && col.Affinity == "INTEGER" {
			t.RowidAlias = i
			break
		}
	}
	t.tree = btree.OpenTable(c.pg, root)
	c.tables[strings.ToLower(name)] = t
	return t, nil
}

// createIndex adds a secondary index and backfills it from the table.
func (c *catalog) createIndex(name, tblName string, colNames []string, unique, ifNotExists bool) (*Index, error) {
	if _, ok := c.indexes[strings.ToLower(name)]; ok {
		if ifNotExists {
			return c.indexes[strings.ToLower(name)], nil
		}
		return nil, fmt.Errorf("%w: %s", ErrIndexExists, name)
	}
	t, err := c.table(tblName)
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(colNames))
	for i, cn := range colNames {
		pos := t.ColumnIndex(cn)
		if pos < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, tblName, cn)
		}
		cols[i] = pos
	}
	root, err := btree.CreateIndex(c.pg)
	if err != nil {
		return nil, err
	}
	rowid, err := c.addMasterRow("index", name, t.Name, root, encodeIndexSpec(cols, unique))
	if err != nil {
		return nil, err
	}
	idx := &Index{Name: name, Table: t.Name, Cols: cols, Unique: unique, Root: root, masterRowid: rowid}
	idx.tree = btree.OpenIndex(c.pg, root, CompareRecords)
	c.indexes[strings.ToLower(name)] = idx
	t.Indexes = append(t.Indexes, idx)

	// Backfill from existing rows.
	cur, err := t.tree.SeekFirst()
	if err != nil {
		return nil, err
	}
	for cur.Valid() {
		rid, err := cur.Rowid()
		if err != nil {
			return nil, err
		}
		payload, err := cur.Payload()
		if err != nil {
			return nil, err
		}
		vals, err := DecodeRecord(payload)
		if err != nil {
			return nil, err
		}
		fillRowidAlias(t, vals, rid)
		if err := insertIndexEntry(idx, vals, rid); err != nil {
			return nil, err
		}
		if err := cur.Next(); err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// dropTable removes a table, its indexes, and their pages.
func (c *catalog) dropTable(name string, ifExists bool) error {
	key := strings.ToLower(name)
	t, ok := c.tables[key]
	if !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	for _, idx := range t.Indexes {
		if err := idx.tree.Drop(); err != nil {
			return err
		}
		if err := c.pg.Free(idx.Root); err != nil {
			return err
		}
		if _, err := c.master.Delete(idx.masterRowid); err != nil {
			return err
		}
		delete(c.indexes, strings.ToLower(idx.Name))
	}
	if err := t.tree.Drop(); err != nil {
		return err
	}
	if err := c.pg.Free(t.Root); err != nil {
		return err
	}
	if _, err := c.master.Delete(t.masterRowid); err != nil {
		return err
	}
	delete(c.tables, key)
	return nil
}

// dropIndex removes one index.
func (c *catalog) dropIndex(name string, ifExists bool) error {
	key := strings.ToLower(name)
	idx, ok := c.indexes[key]
	if !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrNoSuchIndex, name)
	}
	if err := idx.tree.Drop(); err != nil {
		return err
	}
	if err := c.pg.Free(idx.Root); err != nil {
		return err
	}
	if _, err := c.master.Delete(idx.masterRowid); err != nil {
		return err
	}
	if t, ok := c.tables[strings.ToLower(idx.Table)]; ok {
		kept := t.Indexes[:0]
		for _, ix := range t.Indexes {
			if ix != idx {
				kept = append(kept, ix)
			}
		}
		t.Indexes = kept
	}
	delete(c.indexes, key)
	return nil
}

// reset drops cached schema state after a rollback (roots or rows may
// have been undone) and reloads from storage.
func (c *catalog) reset() error {
	c.gen++
	c.tables = make(map[string]*Table)
	c.indexes = make(map[string]*Index)
	c.master = nil
	if root := c.pg.SchemaRoot(); root != 0 {
		c.master = btree.OpenTable(c.pg, pager.Pgno(root))
		err := c.load()
		c.stale = err != nil
		return err
	}
	c.stale = false
	return nil
}

// fresh reloads, before the next statement consults it, a catalog whose
// last reset failed — the device was gone under a rollback or a failed
// commit. A half-loaded schema must answer with the device's error, not
// with "no such table".
func (c *catalog) fresh() error {
	if !c.stale {
		return nil
	}
	return c.reset()
}

// fillRowidAlias substitutes the stored NULL of an INTEGER PRIMARY KEY
// column with the row's actual rowid, as SQLite does on read.
func fillRowidAlias(t *Table, vals []Value, rowid int64) {
	if t.RowidAlias >= 0 && t.RowidAlias < len(vals) {
		vals[t.RowidAlias] = Int(rowid)
	}
}

// indexKey builds the stored key for an index entry: the indexed column
// values followed by the rowid (making every key unique).
func indexKey(idx *Index, vals []Value, rowid int64) []byte {
	key := make([]Value, 0, len(idx.Cols)+1)
	for _, pos := range idx.Cols {
		key = append(key, vals[pos])
	}
	key = append(key, Int(rowid))
	return EncodeRecord(key)
}

// indexPrefix builds a probe key from the leading column values only.
func indexPrefix(vals []Value) []byte { return EncodeRecord(vals) }

func insertIndexEntry(idx *Index, vals []Value, rowid int64) error {
	return idx.tree.InsertKey(indexKey(idx, vals, rowid))
}

func deleteIndexEntry(idx *Index, vals []Value, rowid int64) error {
	_, err := idx.tree.DeleteKey(indexKey(idx, vals, rowid))
	return err
}
