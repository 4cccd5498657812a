// Package server is the network SQL serving tier in front of the X-FTL
// stack: a concurrent line-delimited JSON protocol over TCP where each
// connection drives transactions on an mvcc session, fronted by a
// robustness plane that keeps the tier overload-safe — under a burst it
// sheds explicitly instead of queueing unboundedly, and when the
// firmware degrades (quarantined units, worn-out flash) it degrades
// service deliberately instead of timing everything out.
//
// # Protocol
//
// One JSON object per line in each direction. Requests:
//
//	{"id":1,"op":"query","sql":"SELECT v FROM kv WHERE k = ?","args":[7]}
//	{"id":2,"op":"exec","sql":"UPDATE kv SET v = ? WHERE k = ?","args":[1,7],"deadline_ms":100}
//	{"op":"begin"} {"op":"begin","readonly":true} {"op":"commit"} {"op":"rollback"}
//	{"op":"ping"} {"op":"stats"} {"op":"slow"}
//	{"op":"exec","db":"b.db","sql":"INSERT INTO t VALUES (?, ?, ?)","args":["x",null,true]}
//
// query/exec outside an explicit transaction autocommit. Responses echo
// the id and carry either the result or a typed failure:
//
//	{"ok":true,"id":1,"columns":["v"],"rows":[["x"]],"req_id":41}
//	{"ok":true,"id":2,"affected":1,"req_id":42}
//	{"ok":false,"id":3,"req_id":43,"error":"server: overloaded","code":"overload","retryable":true,"retry_after_ms":5}
//
// Both directions keep to one grammar, which the server and Client read
// and write with a hand-written codec (wire.go), not reflection:
//
//   - a line is one object;
//   - its keys are the json names of Request's (or Response's) fields,
//     in exact case, each at most once; an unknown key is an error;
//   - each value has its field's JSON type. null is allowed only as an
//     element of args or of a rows row;
//   - args and each rows row hold flat scalars: string, number, bool
//     or null. A number reads as a float64, except that in args one
//     holding an exact integral value below 2^63 reads as an int64, so
//     it binds as an INTEGER;
//   - strings are valid UTF-8, and a \u surrogate escape is one half
//     of a valid pair;
//   - deadline_ms is an integer in [0, math.MaxInt64/1e6], the most
//     milliseconds a time.Duration holds;
//   - stats and slow are nested values that encoding/json decodes.
//
// encoding/json is the reference: a line the codec accepts,
// json.Unmarshal accepts too, into the same exported fields (its
// float64 args made int64 by the rule above), and what the codec
// writes reads back under json.Unmarshal as json.Marshal's encoding
// does. FuzzWireRequest and FuzzWireResponse check both. The codec's
// own spellings differ from json.Marshal's: a float is written in
// strconv's shortest 'g' form (1e+21, 1e-07, 0.1), and a string escapes
// a quote or backslash with a backslash and a control character as
// \u00XX, nothing else.
//
// A served request allocates only the values it carries. The
// connection decodes each request into one Request, reusing its args'
// room, and interns the SQL texts and database names it has been sent
// (at most 64 texts of at most 1 KiB, dropped together when full). It
// answers in one Response, tracks stage timings in one track, and runs
// every autocommit query and exec on one session; an explicit
// transaction outlives its request, so begin opens a session of its
// own. What is left is the bind arguments' boxed values and a query's
// result set (sqlite.Rows and its row). The Client decodes a reply into
// the Response it returns, which holds a row of up to two values (a
// point read's key and value) and its column names; it interns column
// names as the server interns texts, so what is left is the row's
// values. TestServedRequestAllocs pins the counts: client and server together,
// a ping allocates once (the Response), an autocommit UPDATE twice and
// a one-row point query six times.
//
// A line outside the grammar is answered bad_request with id 0, and
// the connection serves on. A request line may be at most 1 MiB: a
// longer one is answered bad_request with id 0 and the connection is
// closed, since its framing is lost. A query whose result holds an
// infinite or NaN REAL, which JSON cannot spell, fails with code sql.
//
// Every data-path response also carries req_id, the server-minted
// monotonic request id. The same id tags the request's device I/O all
// the way down (mvcc session → file system → NCQ → NAND trace events),
// names the request in the slow capture, and labels its KRequest span
// in a trace export — quote it when reporting a slow query and the
// server side can find everything that request did.
//
// The slow op returns the server's slow-request capture: the N slowest
// requests seen so far (32), each with its req_id, op, database,
// outcome and a per-stage wall-time breakdown (admission wait, session
// begin, execution, commit, other) whose microseconds sum to the
// request's wall_us exactly. The same capture is served as JSON at
// /debug/slow on the metrics listener (MetricsMux).
//
// /metrics on the same listener is the fleet's one metrics registry in
// Prometheus text format: the tier's own families
// (xftl_requests_served_total, xftl_shed_total, xftl_breaker_open{shard},
// the xftl_stage_duration_seconds{stage} and xftl_op_duration_seconds{op}
// histograms, ...) beside what every layer below publishes per shard —
// xftl_flash_page_writes_total, xftl_gc_runs_total,
// xftl_host_page_writes_total{class}, xftl_tx_commits_total,
// xftl_ncq_command_seconds{class}, xftl_readpool_hits_total{db} and the
// rest of the catalogue in DESIGN.md §11. A scrape is safe under load.
//
// # Error taxonomy
//
// Every failure the tier can produce maps onto one typed, errors.Is-
// matchable sentinel, split into retryable (the client should back off
// and resend — the condition is expected to clear) and fatal (resending
// the same request cannot succeed):
//
// Retryable:
//
//   - ErrOverload ("overload") — the admission queue was full and the
//     request was shed without queueing. Carries a retry-after hint.
//   - ErrDeadline ("deadline") — the request's wall-clock budget
//     expired while it waited for an execution slot or the write lock.
//   - ErrDegraded ("degraded") — the write circuit breaker is open:
//     quarantine pressure on the flash array crossed half the units,
//     so writes are shed while reads keep flowing. Carries a
//     longer retry-after hint (breaker state changes on firmware
//     timescales).
//   - mvcc.ErrBusy ("busy") — the write lock could not be acquired
//     inside the propagated deadline (SQLITE_BUSY analogue).
//   - ncq.ErrCmdTimeout ("cmd_timeout") — a device command exhausted
//     its retry budget; the retry plane has already steered around the
//     sick unit, so a resend usually lands on healthy flash.
//   - ErrShuttingDown ("shutdown") — the tier is draining; retry
//     against another replica (or after restart).
//
// Fatal:
//
//   - storage.ErrWornOut ("worn_out") — the spare reserve is exhausted;
//     the device is read-only forever.
//   - nand.ErrPowerLost ("power_lost") — the device lost power mid-run;
//     the connection's transaction state is gone.
//   - pager.ErrReadOnly ("read_only") — a write inside a read-only
//     (snapshot) transaction.
//   - ErrBadRequest ("bad_request") — malformed JSON, unknown op, or a
//     protocol-state violation (commit without begin).
//   - anything else ("sql") — SQL and constraint errors; retrying the
//     identical statement returns the identical error.
//
// Classify maps any error from the stack onto this taxonomy; the wire
// response carries the code, the retryable bit and the retry-after
// hint, so clients never need to parse error strings.
//
// # Admission control and backpressure
//
// Sixteen execution slots bound how many requests touch the stack at
// once; up to 32 more may wait for a slot, each bounded by its own
// request deadline. A request that arrives with the wait queue full is
// shed immediately with ErrOverload — load past the tier's capacity
// turns into fast, explicit rejections (with hints) rather than
// unbounded queueing and collective timeout. Slots are
// held per request, not per transaction, so an interactive transaction
// cannot starve the tier between statements; the mvcc layer's FIFO
// writer lock (reached through shard.Fleet.BeginInto with the
// request's remaining budget) provides the transaction-level
// serialization.
//
// # Deadline propagation
//
// Each request carries a wall-clock budget (deadline_ms; 0 or absent
// selects 500 ms). The budget gates the admission wait, is re-checked
// before execution, and the remaining portion is handed to
// shard.Fleet.BeginInto as the mvcc busy budget — virtual time advances no
// faster than device work, so the virtual budget is a conservative
// bound. Below that, the stack's NCQ retry plane runs with per-attempt
// command deadlines and bounded retries (see DESIGN.md §12 for the
// sizing rule), so a hung die costs a deadline, not a stall.
//
// # Graceful drain
//
// Shutdown stops accepting, closes idle connections, lets in-flight
// requests and open transactions finish (commit/rollback stay
// admissible while draining; new work is refused with ErrShuttingDown),
// force-closes stragglers after five seconds, then closes the mvcc
// manager and the stack — which drains every in-flight NCQ command.
// After Shutdown returns no server goroutine remains.
package server
