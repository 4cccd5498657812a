package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
)

// Client is a minimal protocol client: one TCP connection, serialized
// request/response round trips. Safe for concurrent use (calls are
// mutex-serialized onto the connection); open one Client per desired
// in-flight request.
type Client struct {
	mu     sync.Mutex
	nc     net.Conn
	br     *bufio.Reader
	out    []byte            // the request line being sent
	long   []byte            // a response line longer than br's buffer
	texts  map[string]string // the column names the server has sent
	nextID uint64
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{nc: nc, br: bufio.NewReaderSize(nc, 64<<10), texts: make(map[string]string)}, nil
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
	resp := new(Response)
	if err := decodeResponse(line, resp, c.texts); err != nil {
		return nil, fmt.Errorf("server: bad response: %w", err)
	}
	return resp, nil
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
