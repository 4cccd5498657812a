package server

import (
	"time"

	"repro/internal/sqlite"
)

// Request ops.
const (
	OpQuery    = "query"
	OpExec     = "exec"
	OpBegin    = "begin"
	OpCommit   = "commit"
	OpRollback = "rollback"
	OpPing     = "ping"
)

// Request is one client command: one JSON object per line.
type Request struct {
	ID  uint64 `json:"id,omitempty"`
	Op  string `json:"op"`
	SQL string `json:"sql,omitempty"`
	// DB names the target database; empty selects the server's default.
	// The serving tier routes it to the owning shard by name. Statements
	// inside an open transaction ignore DB — they run on the session
	// opened by begin.
	DB string `json:"db,omitempty"`
	// Args are the statement's bind parameters as the client encodes
	// them: scalars of the Go types sqlite.FromGo binds. The server does
	// not read them back: it decodes args into params.
	Args []any `json:"args,omitempty"`
	// DeadlineMS is this request's end-to-end wall-clock budget in
	// milliseconds, at most maxDeadlineMS; 0 selects the server's
	// default. The budget gates the admission wait and is propagated to
	// the mvcc busy timeout.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Readonly marks a begin as a snapshot-read transaction (MVCC mode:
	// never blocks, never sheds on the write breaker).
	Readonly bool `json:"readonly,omitempty"`

	// params is the server's decoding of args, the typed values the
	// statement binds, in room the connection reuses request after
	// request. A JSON number is an INTEGER when it holds an exact
	// integral value, so INTEGER keys match, and a REAL otherwise.
	params []sqlite.Value
}

// Response is one reply: one JSON object per line, id echoed.
type Response struct {
	ID       uint64   `json:"id,omitempty"`
	OK       bool     `json:"ok"`
	Columns  []string `json:"columns,omitempty"`
	Rows     [][]any  `json:"rows,omitempty"`
	Affected int64    `json:"affected,omitempty"`

	// ReqID is the server-minted request id of this data-path request:
	// the handle that links the response to the server's slow-request
	// capture, stage timings and trace spans. 0 for non-data ops.
	ReqID uint64 `json:"req_id,omitempty"`

	// Failure taxonomy (ok == false): human-readable error, stable
	// machine code, whether a retry can succeed, and an optional
	// backoff hint.
	Error        string `json:"error,omitempty"`
	Code         string `json:"code,omitempty"`
	Retryable    bool   `json:"retryable,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`

	// A query's result set on the server side: the codec writes it as
	// columns and rows in place of Columns and Rows.
	resultCols []string
	resultRows [][]sqlite.Value
	// The decoder's room, the way sqlite.Rows holds its one row: Columns
	// when there are at most two, Rows when there is one row, and that
	// row when it has at most two values (a point read's key and value).
	cols [2]string
	one  [1][]any
	vals [2]any
}

// WireStats is the tier's request counters. Every other health number
// (breaker, quarantine, busy timeouts, command retries) is a per-shard
// family of the /metrics exposition.
type WireStats struct {
	Served        int64
	Failed        int64
	Admitted      int64
	Shed          int64
	DeadlineDrops int64
	InFlight      int
	OpenTxns      int64
}

// failure builds the wire form of err per the taxonomy.
func failure(id uint64, err error) *Response {
	c := Classify(err)
	return &Response{
		ID:           id,
		Error:        err.Error(),
		Code:         c.Code,
		Retryable:    c.Retryable,
		RetryAfterMS: int64(c.RetryAfter / time.Millisecond),
	}
}
