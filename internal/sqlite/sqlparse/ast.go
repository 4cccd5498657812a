package sqlparse

// Stmt is any parsed SQL statement.
type Stmt interface{ stmt() }

// ColumnDef is one column in a CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       string // declared affinity: INTEGER, TEXT, REAL, BLOB, ""
	PrimaryKey bool
}

// CreateTable is CREATE TABLE [IF NOT EXISTS] name (cols...).
type CreateTable struct {
	Name        string
	IfNotExists bool
	Columns     []ColumnDef
}

// CreateIndex is CREATE [UNIQUE] INDEX name ON table (cols...).
type CreateIndex struct {
	Name        string
	Table       string
	Columns     []string
	Unique      bool
	IfNotExists bool
}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Name     string
	IfExists bool
}

// DropIndex is DROP INDEX [IF EXISTS] name.
type DropIndex struct {
	Name     string
	IfExists bool
}

// Insert is INSERT INTO table [(cols)] VALUES (...),(...).
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

// Update is UPDATE table SET col=expr,... [WHERE expr].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET clause.
type Assignment struct {
	Column string
	Value  Expr
}

// Delete is DELETE FROM table [WHERE expr].
type Delete struct {
	Table string
	Where Expr
}

// TableRef is one FROM-clause table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Join is one JOIN clause.
type Join struct {
	Table TableRef
	On    Expr // nil for CROSS JOIN
	Left  bool // LEFT [OUTER] JOIN
}

// OrderTerm is one ORDER BY term.
type OrderTerm struct {
	Expr Expr
	Desc bool
}

// ResultColumn is one item of the SELECT list.
type ResultColumn struct {
	Expr  Expr // nil means * (Star true)
	Alias string
	Star  bool   // SELECT * or tbl.*
	Table string // for tbl.*
}

// Select is a SELECT statement.
type Select struct {
	Distinct bool
	Columns  []ResultColumn
	From     *TableRef
	Joins    []Join
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderTerm
	Limit    Expr // nil = none
	Offset   Expr
}

// Begin is BEGIN [TRANSACTION].
type Begin struct{}

// Commit is COMMIT.
type Commit struct{}

// Rollback is ROLLBACK.
type Rollback struct{}

// Pragma is PRAGMA name [= value] — accepted and surfaced to the engine.
type Pragma struct {
	Name  string
	Value string
}

func (*CreateTable) stmt() {}
func (*CreateIndex) stmt() {}
func (*DropTable) stmt()   {}
func (*DropIndex) stmt()   {}
func (*Insert) stmt()      {}
func (*Update) stmt()      {}
func (*Delete) stmt()      {}
func (*Select) stmt()      {}
func (*Begin) stmt()       {}
func (*Commit) stmt()      {}
func (*Rollback) stmt()    {}
func (*Pragma) stmt()      {}

// Expr is any expression node.
type Expr interface{ expr() }

// IntLit is an integer literal.
type IntLit struct{ Value int64 }

// FloatLit is a floating-point literal.
type FloatLit struct{ Value float64 }

// StringLit is a text literal.
type StringLit struct{ Value string }

// BlobLit is a hex blob literal x'...'.
type BlobLit struct{ Value []byte }

// NullLit is NULL.
type NullLit struct{}

// Param is a positional ? placeholder (0-based index).
type Param struct{ Index int }

// ColumnRef names a column, optionally qualified.
type ColumnRef struct {
	Table  string
	Column string
}

// Unary is a prefix operator: -, NOT.
type Unary struct {
	Op string
	X  Expr
}

// Binary is an infix operator: arithmetic, comparison, AND, OR, LIKE, ||.
type Binary struct {
	Op   string
	L, R Expr
}

// IsNull is X IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

// InList is X [NOT] IN (e1, e2, ...).
type InList struct {
	X    Expr
	Not  bool
	List []Expr
}

// Between is X [NOT] BETWEEN lo AND hi.
type Between struct {
	X      Expr
	Not    bool
	Lo, Hi Expr
}

// Call is a function invocation (aggregates included).
type Call struct {
	Name     string // upper-cased
	Distinct bool
	Star     bool // COUNT(*)
	Args     []Expr
}

// CaseExpr is CASE [operand] WHEN.. THEN.. [ELSE..] END.
type CaseExpr struct {
	Operand Expr
	Whens   []When
	Else    Expr
}

// When is one WHEN/THEN arm.
type When struct {
	Cond Expr
	Then Expr
}

func (*IntLit) expr()    {}
func (*FloatLit) expr()  {}
func (*StringLit) expr() {}
func (*BlobLit) expr()   {}
func (*NullLit) expr()   {}
func (*Param) expr()     {}
func (*ColumnRef) expr() {}
func (*Unary) expr()     {}
func (*Binary) expr()    {}
func (*IsNull) expr()    {}
func (*InList) expr()    {}
func (*Between) expr()   {}
func (*Call) expr()      {}
func (*CaseExpr) expr()  {}
