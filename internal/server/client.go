package server

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Client is a minimal protocol client: one TCP connection, serialized
// request/response round trips. Safe for concurrent use (calls are
// mutex-serialized onto the connection); open one Client per desired
// in-flight request.
type Client struct {
	mu     sync.Mutex
	nc     net.Conn
	br     *bufio.Reader
	out    []byte // the request line being sent
	long   []byte // a response line longer than br's buffer
	nextID uint64
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

// Close tears the connection down. A transaction left open server-side
// is rolled back by the server's connection cleanup.
func (c *Client) Close() error { return c.nc.Close() }

// Do sends one request and waits for its response. A zero req.ID is
// assigned automatically.
func (c *Client) Do(req Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.ID == 0 {
		c.nextID++
		req.ID = c.nextID
	}
	out, err := appendRequest(c.out[:0], &req)
	if err != nil {
		return nil, err
	}
	c.out = out
	if _, err := c.nc.Write(out); err != nil {
		return nil, err
	}
	// A result set may be large: the client reads its line whole.
	line, err := readLine(c.br, &c.long, 0)
	if err != nil {
		return nil, err
	}
	resp := &Response{}
	if err := decodeResponse(line, resp); err != nil {
		return nil, fmt.Errorf("server: bad response: %w", err)
	}
	return resp, nil
}

// RetryPolicy bounds DoRetry: how many attempts, how the backoff
// grows, and the total wall budget across attempts. The zero value
// selects the noted defaults.
type RetryPolicy struct {
	// MaxAttempts caps total sends, first try included (default 5).
	MaxAttempts int
	// BaseBackoff is the first retry's nominal wait (default 2ms); it
	// doubles per attempt up to MaxBackoff (default 250ms). The server's
	// retry_after_ms hint raises the nominal wait when larger, and the
	// actual sleep is jittered uniformly over [nominal/2, nominal] so a
	// shed burst does not resynchronize into the next burst.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Budget is the total wall budget across attempts and waits
	// (default 2s). A wait that would overrun it ends the retry loop
	// and surfaces the last failure instead.
	Budget time.Duration
	// Sleep stubs time.Sleep in tests; nil uses the real clock.
	Sleep func(time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 2 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 250 * time.Millisecond
	}
	if p.Budget <= 0 {
		p.Budget = 2 * time.Second
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// DoRetry sends a request, retrying failures the server marked
// retryable (overload sheds, degraded-mode sheds, busy timeouts — all
// refused before execution, so a retry never doubles a write). Backoff
// is exponential with full jitter, floored by the server's
// retry_after_ms hint, and the whole loop is bounded by the policy's
// attempt and wall budgets. Transport errors are returned immediately:
// the connection's framing is gone and a retry on it cannot succeed.
func (c *Client) DoRetry(req Request, pol RetryPolicy) (*Response, error) {
	pol = pol.withDefaults()
	deadline := time.Now().Add(pol.Budget)
	backoff := pol.BaseBackoff
	var resp *Response
	for attempt := 0; ; attempt++ {
		var err error
		req.ID = 0 // fresh id per attempt
		resp, err = c.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.OK || !resp.Retryable || attempt+1 >= pol.MaxAttempts {
			return resp, nil
		}
		nominal := backoff
		if hint := time.Duration(resp.RetryAfterMS) * time.Millisecond; hint > nominal {
			nominal = hint
		}
		wait := nominal/2 + time.Duration(rand.Int63n(int64(nominal/2)+1))
		if time.Now().Add(wait).After(deadline) {
			return resp, nil // budget exhausted: surface the last failure
		}
		pol.Sleep(wait)
		if backoff *= 2; backoff > pol.MaxBackoff {
			backoff = pol.MaxBackoff
		}
	}
}

// Query runs a SELECT (autocommit outside a transaction).
func (c *Client) Query(sql string, args ...any) (*Response, error) {
	return c.Do(Request{Op: OpQuery, SQL: sql, Args: args})
}

// Exec runs a write statement (autocommit outside a transaction).
func (c *Client) Exec(sql string, args ...any) (*Response, error) {
	return c.Do(Request{Op: OpExec, SQL: sql, Args: args})
}

// Begin opens a transaction on this connection.
func (c *Client) Begin(readonly bool) (*Response, error) {
	return c.Do(Request{Op: OpBegin, Readonly: readonly})
}

// Commit commits the connection's open transaction.
func (c *Client) Commit() (*Response, error) { return c.Do(Request{Op: OpCommit}) }

// Rollback rolls the connection's open transaction back.
func (c *Client) Rollback() (*Response, error) { return c.Do(Request{Op: OpRollback}) }

// Ping round-trips a no-op.
func (c *Client) Ping() (*Response, error) { return c.Do(Request{Op: OpPing}) }

// Stats fetches the server health snapshot.
func (c *Client) Stats() (*WireStats, error) {
	resp, err := c.Do(Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("server: stats response missing payload")
	}
	return resp.Stats, nil
}

// Slow fetches the server's slow-request capture, slowest first.
func (c *Client) Slow() ([]SlowEntry, error) {
	resp, err := c.Do(Request{Op: OpSlow})
	if err != nil {
		return nil, err
	}
	return resp.Slow, nil
}
