package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/trace"
)

// serve_mixed: the serving tier over TCP with reads beside writes.
const (
	serveDB      = "serve.db"
	serveRows    = 20000 // ≈400 pages, 6× the per-connection page cache
	serveSeedTxn = 500   // rows per seeding transaction: one txn must fit the 500-entry X-L2P
	serveZipfS   = 1.1
	// serveReadShare is connection 0's share of the requests: it only
	// reads. Connection 1 takes the rest, one in five of them UPDATEs,
	// so writes are 5 % overall and confined to one connection (two
	// writing connections fail ~0.6 % of requests `busy`; see README).
	serveReadShare   = 0.75
	serveUpdateEvery = 5
	// serveKeyStride scatters the Zipf ranks over the key space so the
	// hot keys do not share a handful of pages.
	serveKeyStride = 7919
)

type serveClient struct {
	c    *server.Client
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int
}

type serveInstance struct {
	srv      *server.Server
	rows     int
	cl       [2]*serveClient
	updates  atomic.Int64 // acknowledged UPDATEs, seeding excluded
	mismatch atomic.Int64
}

func setupServe(e env) (instance, error) {
	srv, err := server.New(server.Options{DBName: serveDB})
	if err != nil {
		return nil, err
	}
	rows := serveRows
	if e.quick {
		rows /= 10
	}
	in := &serveInstance{srv: srv, rows: rows}
	if err := seedKV(rows, func() (kvTxn, error) { return srv.Fleet().Begin(serveDB, false) }); err != nil {
		_ = srv.Shutdown()
		return nil, fmt.Errorf("seed: %w", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown()
		return nil, err
	}
	for i := range in.cl {
		c, err := server.Dial(addr.String())
		if err != nil {
			_ = in.close()
			return nil, err
		}
		rng := rand.New(rand.NewSource(e.seed + int64(i)*7919))
		in.cl[i] = &serveClient{c: c, rng: rng, zipf: rand.NewZipf(rng, serveZipfS, 1, uint64(rows-1))}
	}
	return in, nil
}

func (in *serveInstance) clients() int { return 2 }

func (in *serveInstance) share(n int) []int {
	reads := int(float64(n) * serveReadShare)
	return []int{reads, n - reads}
}

func (in *serveInstance) device() *storage.Device { return in.srv.Stack().Device }
func (in *serveInstance) attach(t *trace.Tracer)  { attachStack(in.srv.Stack(), t) }

func (in *serveInstance) counters() layerCounters {
	lc := stackCounters(in.srv.Stack())
	lc.addManager(in.srv.Manager())
	lc.wire = *in.srv.WireStats()
	var buf bytes.Buffer
	in.srv.WritePrometheus(&buf)
	lc.stage = parseStageTotals(buf.String())
	return lc
}

// op is one request and its reply. Connection 0 sends point SELECTs;
// connection 1 sends an autocommit UPDATE every fifth request.
func (in *serveInstance) op(c int, _ *spans) (time.Duration, error) {
	cl := in.cl[c]
	cl.n++
	key := int64(cl.zipf.Uint64() * serveKeyStride % uint64(in.rows))
	if c == 1 && cl.n%serveUpdateEvery == 0 {
		resp, err := cl.c.Exec("UPDATE kv SET v = v + 1 WHERE k = ?", key)
		if err != nil {
			return -1, err
		}
		if !resp.OK {
			return -1, fmt.Errorf("update k=%d: %s (%s)", key, resp.Error, resp.Code)
		}
		in.updates.Add(1)
		if resp.Affected != 1 {
			in.mismatch.Add(1)
		}
		return -1, nil
	}
	resp, err := cl.c.Query("SELECT k, v FROM kv WHERE k = ?", key)
	if err != nil {
		return -1, err
	}
	if !resp.OK {
		return -1, fmt.Errorf("select k=%d: %s (%s)", key, resp.Error, resp.Code)
	}
	if len(resp.Rows) != 1 || wireInt(resp.Rows[0][0]) != key {
		in.mismatch.Add(1)
	}
	return -1, nil
}

// wireInt reads an integer column of a JSON-decoded row.
func wireInt(v any) int64 {
	f, _ := v.(float64)
	return int64(f)
}

// verify checks that every acknowledged UPDATE, and nothing else,
// reached the table.
func (in *serveInstance) verify() (checks, mismatches int, err error) {
	resp, err := in.cl[0].c.Query("SELECT SUM(v), COUNT(*) FROM kv")
	if err != nil {
		return 0, 0, err
	}
	if !resp.OK {
		return 0, 0, fmt.Errorf("sum: %s", resp.Error)
	}
	mismatches = int(in.mismatch.Load())
	if len(resp.Rows) != 1 {
		return 2, mismatches + 2, nil
	}
	if wireInt(resp.Rows[0][0]) != in.updates.Load() {
		mismatches++
	}
	if wireInt(resp.Rows[0][1]) != int64(in.rows) {
		mismatches++
	}
	return 2, mismatches, nil
}

func (in *serveInstance) close() error {
	for _, cl := range in.cl {
		if cl != nil {
			_ = cl.c.Close()
		}
	}
	return in.srv.Shutdown()
}

// stageTotals is the serving tier's per-stage wall time, summed over
// served requests, from its xftl_stage_duration_seconds histograms.
type stageTotals struct {
	seconds map[string]float64
	count   map[string]float64
}

// parseStageTotals picks the _sum and _count series of the stage
// histogram family out of the Prometheus exposition.
func parseStageTotals(text string) stageTotals {
	st := stageTotals{seconds: map[string]float64{}, count: map[string]float64{}}
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, "xftl_stage_duration_seconds_")
		if !ok {
			continue
		}
		kind, rest, _ := strings.Cut(rest, `{stage="`)
		stage, val, _ := strings.Cut(rest, `"} `)
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch kind {
		case "sum":
			st.seconds[stage] = v
		case "count":
			st.count[stage] = v
		}
	}
	return st
}
