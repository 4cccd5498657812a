package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	xftl "repro"
	"repro/internal/metrics"
	"repro/internal/mvcc"
	"repro/internal/shard"
	"repro/internal/sqlite/pager"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Options tunes the serving tier. The zero value selects the defaults
// noted on each field.
type Options struct {
	// Mode selects the session model: mvcc.MVCC (snapshot readers over
	// X-FTL, the default) or mvcc.Serialized (rollback-journal
	// baseline).
	Mode mvcc.Mode
	// Channels is the flash array's channel count (default 8).
	Channels int
	// DBName is the default database served — requests that name no DB
	// go here (default "serve.db").
	DBName string
	// Shards builds the tier over a fleet of independent X-FTL stacks
	// and routes requests to shards by database name (default 1). Each
	// shard gets its own device, queue and write breaker.
	Shards int
	// ReadPool is the warm snapshot reader-pool capacity per database
	// manager in MVCC mode: a finished read request parks its snapshot
	// connection (pager cache and catalog hot) for the next reader at
	// the same committed generation, so short point-read requests skip
	// the cold-open cost. 0 takes the default (8); negative disables
	// pooling. Ignored outside MVCC mode.
	ReadPool int
}

// The tier's fixed settings.
const (
	queueDepth = 32 // the NCQ depth
	cacheSize  = 64 // the SQLite page cache per connection, in pages
	// maxConcurrent bounds requests executing on the stack at once;
	// maxQueue bounds requests waiting for an execution slot, and
	// arrivals past it are shed with ErrOverload.
	maxConcurrent = 16
	maxQueue      = 2 * maxConcurrent
	// defaultDeadline is the per-request wall budget when the client
	// sends none.
	defaultDeadline = 500 * time.Millisecond
	// shedRetryAfter is the hint attached to overload sheds: the order
	// of one service time.
	shedRetryAfter = 5 * time.Millisecond
	// breakerFraction opens the write breaker when this fraction of
	// channel/way units is quarantined.
	breakerFraction = 0.5
	// cmdDeadline and cmdRetries configure the stack's NCQ retry plane.
	// The per-attempt deadline must clear healthy per-unit queueing
	// (DESIGN.md §12).
	cmdDeadline = 10 * time.Millisecond
	cmdRetries  = 8
	// slowCount is how many of the slowest requests the server keeps
	// with their per-stage breakdowns, served by the slow op and
	// /debug/slow.
	slowCount = 32
)

// drainTimeout bounds the graceful drain: connections still holding open
// transactions past it are force-closed and rolled back.
const drainTimeout = 5 * time.Second

func (o Options) withDefaults() Options {
	if o.Channels <= 0 {
		o.Channels = 8
	}
	if o.DBName == "" {
		o.DBName = "serve.db"
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.ReadPool == 0 {
		o.ReadPool = 8
	}
	return o
}

// Server is one serving-tier instance: a fleet of stacks behind a
// shard router (one member unless Options.Shards says otherwise), an
// admission gate and one write breaker per shard.
type Server struct {
	opts  Options
	fleet *shard.Fleet
	adm   *admission
	brks  []*breaker

	mu       sync.Mutex
	lis      net.Listener
	conns    map[*conn]struct{}
	draining bool
	closed   bool

	wg sync.WaitGroup // accept loop + connection handlers

	served   atomic.Int64
	failed   atomic.Int64
	openTxns atomic.Int64

	// Per-request observability plane (obs.go): monotonic request ids,
	// wall-clock stage and per-op histograms of served requests, and
	// the slowest-request capture.
	nextReq  atomic.Uint64
	stageLat [numStages]metrics.LatencyHist
	opLat    [len(opHistNames)]metrics.LatencyHist
	slow     *slowRing
}

// New builds the fleet and default session manager for the given
// options. The server owns them; Shutdown closes everything.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	prof := storage.OpenSSD()
	prof.Nand.Channels = opts.Channels
	prof.Nand.Ways = 1

	mode, journal := xftl.ModeRollback, pager.Rollback
	if opts.Mode == mvcc.MVCC {
		mode, journal = xftl.ModeXFTL, pager.Off
	}
	fleet, err := shard.New(shard.Options{
		Shards:  opts.Shards,
		Profile: prof,
		Mode:    mode,
		Stack: storage.Options{
			QueueDepth:  queueDepth,
			CmdDeadline: cmdDeadline,
			CmdRetries:  cmdRetries,
		},
		Session: &mvcc.Options{
			Mode:         opts.Mode,
			Journal:      journal,
			CacheSize:    cacheSize,
			Pipelined:    opts.Mode == mvcc.MVCC,
			PoolCapacity: max(opts.ReadPool, 0),
		},
	})
	if err != nil {
		return nil, err
	}
	// Open the default database eagerly so a misconfigured stack fails
	// at construction, not on the first request.
	if _, _, err := fleet.Manager(opts.DBName); err != nil {
		_ = fleet.Close()
		return nil, err
	}
	brks := make([]*breaker, fleet.Shards())
	for i, st := range fleet.Stacks() {
		brks[i] = &breaker{dev: st.Device}
	}
	s := &Server{
		opts:  opts,
		fleet: fleet,
		adm:   newAdmission(maxConcurrent, maxQueue),
		brks:  brks,
		conns: make(map[*conn]struct{}),
		slow:  newSlowRing(slowCount),
	}
	s.register(fleet.Metrics())
	return s, nil
}

// Stack exposes the default database's underlying stack (chaos hooks,
// gauges, forced quarantines).
func (s *Server) Stack() *xftl.Stack {
	return s.fleet.Stacks()[s.fleet.Route(s.opts.DBName)]
}

// Fleet exposes the shard fleet behind the tier.
func (s *Server) Fleet() *shard.Fleet { return s.fleet }

// Manager exposes the default database's session manager (stats).
func (s *Server) Manager() *mvcc.Manager {
	m, _, _ := s.fleet.Manager(s.opts.DBName)
	return m
}

// dbName resolves a request's target database (default DBName).
func (s *Server) dbName(req *Request) string {
	if req.DB != "" {
		return req.DB
	}
	return s.opts.DBName
}

// brkFor returns the write breaker of the shard owning db.
func (s *Server) brkFor(db string) *breaker {
	return s.brks[s.fleet.Route(db)]
}

// Start listens on addr ("host:port"; ":0" picks a free port) and
// serves until Shutdown.
func (s *Server) Start(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		lis.Close()
		return nil, ErrShuttingDown
	}
	s.lis = lis
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(lis)
	return lis.Addr(), nil
}

func (s *Server) acceptLoop(lis net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := lis.Accept()
		if err != nil {
			return // listener closed (drain) or fatal
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		c := &conn{srv: s, nc: nc}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go c.serve()
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Shutdown drains the tier gracefully: stop accepting, close idle
// connections, let in-flight requests and open transactions finish
// (refusing new work with ErrShuttingDown), force-close stragglers
// after drainTimeout, then close the session manager and the stack —
// draining every in-flight NCQ command. Idempotent.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	alreadyDraining := s.draining
	s.draining = true
	lis := s.lis
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if alreadyDraining {
		return nil
	}
	if lis != nil {
		lis.Close()
	}
	// Connections with no open transaction and no request in flight
	// have nothing to finish: close them now so their handlers unblock.
	for _, c := range conns {
		if !c.txnOpen() && !c.busy.Load() {
			c.nc.Close()
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.fleet.Close()
}

// conn is one client connection's state: the handler goroutine, plus at
// most one open transaction session.
type conn struct {
	srv  *Server
	nc   net.Conn
	busy atomic.Bool // a request is being handled right now

	// What the handler reuses request after request: the reply, the
	// request's stage track, and the session an autocommit query or exec
	// runs on. An explicit transaction outlives its request, so it gets a
	// session of its own.
	resp Response
	rt   reqTrack
	auto shard.Session

	mu     sync.Mutex
	sess   *shard.Session
	sessRO bool
	sessDB string // database the open transaction was begun on
}

func (c *conn) txnOpen() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sess != nil
}

func (c *conn) setSess(s *shard.Session, readonly bool, db string) {
	c.mu.Lock()
	c.sess, c.sessRO, c.sessDB = s, readonly, db
	c.mu.Unlock()
	c.srv.openTxns.Add(1)
}

// sessDBName reports the open transaction's database ("" if none).
func (c *conn) sessDBName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sess == nil {
		return ""
	}
	return c.sessDB
}

// takeSess detaches the open session (nil if none).
func (c *conn) takeSess() (*shard.Session, bool) {
	c.mu.Lock()
	s, ro := c.sess, c.sessRO
	c.sess = nil
	c.mu.Unlock()
	if s != nil {
		c.srv.openTxns.Add(-1)
	}
	return s, ro
}

func (c *conn) curSess() *shard.Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sess
}

func (c *conn) serve() {
	defer c.srv.wg.Done()
	defer c.cleanup()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var long, out []byte
	var req Request
	texts := make(map[string]string) // the SQL and database names this connection has sent
	for {
		line, err := readLine(br, &long, maxLine)
		lost := err == errLongLine // the framing is gone: answer, then close
		if err != nil && !lost {
			return
		}
		if !lost && len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var resp *Response
		if !lost {
			err = decodeRequest(line, &req, texts)
		}
		if err != nil {
			resp = failure(0, fmt.Errorf("%w: %v", ErrBadRequest, err))
		} else {
			c.busy.Store(true)
			resp = c.handle(&req)
			c.busy.Store(false)
		}
		if out, err = appendResponse(out[:0], resp); err != nil {
			// query refuses rows the wire cannot carry, so this is a
			// bug; the client still gets a typed answer.
			out, _ = appendResponse(out[:0], failure(resp.ID, err))
		}
		c.resp = Response{} // written: an idle connection pins no result set
		if _, err := c.nc.Write(out); err != nil {
			return
		}
		if cap(out) > maxLine {
			out = nil // one huge result does not pin its buffer for the connection's life
		}
		if lost || c.srv.isDraining() && !c.txnOpen() {
			return
		}
	}
}

// cleanup runs when the handler exits for any reason: an open
// transaction is rolled back so the writer lock and snapshot pins are
// always released.
func (c *conn) cleanup() {
	if s, _ := c.takeSess(); s != nil {
		_ = s.Rollback()
	}
	c.nc.Close()
	c.srv.removeConn(c)
}

// ok readies the connection's reply to a request that succeeds.
func (c *conn) ok(id uint64) *Response {
	c.resp = Response{ID: id, OK: true}
	return &c.resp
}

// handle executes one request end to end and returns its response.
func (c *conn) handle(req *Request) *Response {
	switch req.Op {
	case OpPing:
		return c.ok(req.ID)
	case OpStats:
		resp := c.ok(req.ID)
		resp.Stats = c.srv.WireStats()
		return resp
	case OpSlow:
		resp := c.ok(req.ID)
		resp.Slow = c.srv.Slow()
		return resp
	case OpQuery, OpExec, OpBegin, OpCommit, OpRollback:
	default:
		return failure(req.ID, fmt.Errorf("%w: unknown op %q", ErrBadRequest, req.Op))
	}

	// Data path: mint the request id and start the stage clock. The
	// target database — the open transaction's if one exists, else the
	// request's — decides which shard's tracer carries the span.
	db := c.srv.dbName(req)
	if open := c.sessDBName(); open != "" {
		db = open
	}
	rt := &c.rt
	c.srv.track(rt, req.Op, db)
	rt.vt = c.srv.tracerFor(db).Now()
	deadline := rt.start.Add(defaultDeadline)
	if req.DeadlineMS > 0 {
		deadline = rt.start.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}

	if req.Op == OpCommit || req.Op == OpRollback {
		// Finishing an already-admitted transaction is always allowed —
		// shedding a commit would waste the work and pin the writer
		// lock — so commit/rollback bypass admission and the breaker.
		resp := c.endTxn(req, rt, req.Op == OpCommit)
		rt.cut(stageCommit)
		return c.srv.finish(rt, resp)
	}

	// New work is refused while draining; statements inside an open
	// transaction may still run so the transaction can reach commit.
	if c.srv.isDraining() && !c.txnOpen() {
		return c.srv.finish(rt, failure(req.ID, ErrShuttingDown))
	}
	err := c.srv.adm.acquire(deadline)
	rt.cut(stageAdmission)
	if err != nil {
		return c.srv.finish(rt, failure(req.ID, err))
	}
	defer c.srv.adm.release()
	if !time.Now().Before(deadline) {
		return c.srv.finish(rt, failure(req.ID, ErrDeadline))
	}
	var resp *Response
	switch req.Op {
	case OpBegin:
		resp = c.beginTxn(req, rt, deadline)
	case OpQuery:
		resp = c.query(req, rt, deadline)
	case OpExec:
		resp = c.exec(req, rt, deadline)
	}
	return c.srv.finish(rt, resp)
}

// finish closes out a data-path request: the final stage cut (into
// "other", so the breakdown sums to the wall latency), the
// served/failed counters, the latency/stage/op histograms, the
// slow-request ring, and the KRequest trace span.
func (s *Server) finish(rt *reqTrack, resp *Response) *Response {
	resp.ReqID = rt.id
	rt.cut(stageOther)
	wall := rt.mark.Sub(rt.start)
	if resp.OK {
		s.served.Add(1)
		if i := opIndex(rt.op); i >= 0 {
			s.opLat[i].Observe(wall)
		}
		for i := range rt.stages {
			if rt.touched[i] {
				s.stageLat[i].Observe(rt.stages[i])
			}
		}
	} else {
		s.failed.Add(1)
	}
	s.slow.offer(rt, resp.OK, resp.Code, wall)
	if tr := s.tracerFor(rt.db); tr != nil {
		aux := int64(0)
		if resp.OK {
			aux = 1
		}
		tr.Record(trace.Event{
			Layer: trace.LServer, Kind: trace.KRequest,
			Start: rt.vt, Dur: tr.Now() - rt.vt,
			Req: rt.id, Aux: aux,
		})
	}
	return resp
}

// tracerFor returns the tracer attached to the stack owning db (nil
// unless Stack.AttachTracer installed one; nil tracers are safe to
// call).
func (s *Server) tracerFor(db string) *trace.Tracer {
	return s.fleet.Stacks()[s.fleet.Route(db)].FS.Tracer()
}

// beginSession opens sess on db's shard and propagates the request's
// remaining wall budget to the mvcc layer as its busy budget. Virtual
// time advances only with device work, so the wall remainder is a
// conservative virtual bound.
func (s *Server) beginSession(sess *shard.Session, db string, readonly bool, deadline time.Time) error {
	budget := time.Until(deadline)
	if budget <= 0 {
		return ErrDeadline
	}
	return s.fleet.BeginInto(sess, db, readonly, budget)
}

func (c *conn) beginTxn(req *Request, rt *reqTrack, deadline time.Time) *Response {
	if c.txnOpen() {
		return failure(req.ID, fmt.Errorf("%w: transaction already open", ErrBadRequest))
	}
	if !req.Readonly {
		if err := c.srv.brkFor(rt.db).allowWrite(); err != nil {
			return failure(req.ID, err)
		}
	}
	sess := new(shard.Session)
	err := c.srv.beginSession(sess, rt.db, req.Readonly, deadline)
	if err == nil {
		// The transaction spans wire requests: this client's think time
		// must never sit inside another client's commit.
		if err = sess.Solo(); err != nil {
			_ = sess.Rollback()
		}
	}
	rt.cut(stageBegin)
	if err != nil {
		return failure(req.ID, err)
	}
	sess.SetReq(rt.id)
	c.setSess(sess, req.Readonly, rt.db)
	return c.ok(req.ID)
}

func (c *conn) endTxn(req *Request, rt *reqTrack, commit bool) *Response {
	sess, _ := c.takeSess()
	if sess == nil {
		return failure(req.ID, fmt.Errorf("%w: no open transaction", ErrBadRequest))
	}
	sess.SetReq(rt.id)
	var err error
	if commit {
		err = sess.Commit()
	} else {
		err = sess.Rollback()
	}
	if err != nil {
		return failure(req.ID, err)
	}
	return c.ok(req.ID)
}

func (c *conn) query(req *Request, rt *reqTrack, deadline time.Time) *Response {
	sess := c.curSess()
	autocommit := sess == nil
	if autocommit {
		sess = &c.auto
		err := c.srv.beginSession(sess, rt.db, true, deadline)
		rt.cut(stageBegin)
		if err != nil {
			return failure(req.ID, err)
		}
		defer func() {
			_ = sess.Commit()
			rt.cut(stageCommit)
		}()
	}
	sess.SetReq(rt.id)
	rows, err := sess.Query(req.SQL, req.Args...)
	rt.cut(stageExec)
	if err == nil {
		err = rowsFinite(rows)
	}
	if err != nil {
		return failure(req.ID, err)
	}
	resp := c.ok(req.ID)
	resp.resultCols, resp.resultRows = rows.Columns, rows.Data
	return resp
}

func (c *conn) exec(req *Request, rt *reqTrack, deadline time.Time) *Response {
	if sess := c.curSess(); sess != nil {
		sess.SetReq(rt.id)
		n, err := sess.Exec(req.SQL, req.Args...)
		rt.cut(stageExec)
		if err != nil {
			return failure(req.ID, err)
		}
		resp := c.ok(req.ID)
		resp.Affected = n
		return resp
	}
	// Autocommit write: breaker, begin, exec, commit.
	if err := c.srv.brkFor(rt.db).allowWrite(); err != nil {
		return failure(req.ID, err)
	}
	s := &c.auto
	err := c.srv.beginSession(s, rt.db, false, deadline)
	rt.cut(stageBegin)
	if err != nil {
		return failure(req.ID, err)
	}
	s.SetReq(rt.id)
	n, err := s.Exec(req.SQL, req.Args...)
	rt.cut(stageExec)
	if err != nil {
		_ = s.Rollback()
		rt.cut(stageCommit)
		return failure(req.ID, err)
	}
	err = s.Commit()
	rt.cut(stageCommit)
	if err != nil {
		return failure(req.ID, err)
	}
	resp := c.ok(req.ID)
	resp.Affected = n
	return resp
}

// WireStats samples the tier's health snapshot: tier-level counters
// plus per-shard gauges, with the fleet-wide sums in the top-level
// fields (a 1-shard tier reports exactly what it did before sharding).
func (s *Server) WireStats() *WireStats {
	ws := &WireStats{
		Served:        s.served.Load(),
		Failed:        s.failed.Load(),
		Admitted:      s.adm.stats.Admitted.Load(),
		Shed:          s.adm.stats.Shed.Load(),
		DeadlineDrops: s.adm.stats.DeadlineDrops.Load(),
		InFlight:      s.adm.inFlight(),
		OpenTxns:      s.openTxns.Load(),
	}
	busyByShard := make(map[int]int64)
	s.fleet.EachManager(func(shard int, db string, m *mvcc.Manager) {
		busyByShard[shard] += m.Stats.BusyTimeouts.Load()
	})
	for i, st := range s.fleet.Stacks() {
		quar, units := st.Device.QuarantinePressure()
		sh := WireShard{
			Shard:         i,
			Quarantined:   quar,
			Units:         units,
			CmdRetries:    st.Device.Queue().Retries(),
			CmdTimeouts:   st.Device.Queue().Timeouts(),
			BusyTimeouts:  busyByShard[i],
			DegradedSheds: s.brks[i].writeSheds.Load(),
			BreakerTrips:  s.brks[i].openTrips.Load(),
			BreakerOpen:   s.brks[i].open.Load(),
		}
		ws.Quarantined += sh.Quarantined
		ws.Units += sh.Units
		ws.CmdRetries += sh.CmdRetries
		ws.CmdTimeouts += sh.CmdTimeouts
		ws.BusyTimeouts += sh.BusyTimeouts
		ws.DegradedSheds += sh.DegradedSheds
		ws.BreakerTrips += sh.BreakerTrips
		ws.BreakerOpen = ws.BreakerOpen || sh.BreakerOpen
		if s.opts.Shards > 1 {
			ws.Shards = append(ws.Shards, sh)
		}
	}
	return ws
}
