package shard

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	xftl "repro"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/ncq"
)

func newTestFleet(t *testing.T, shards int) *Fleet {
	t.Helper()
	f, err := New(Options{
		Shards:  shards,
		Profile: xftl.OpenSSD(),
		Mode:    xftl.ModeXFTL,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

func mustExec(t *testing.T, f *Fleet, db, sql string, args ...any) {
	t.Helper()
	s, err := f.Begin(db, false)
	if err != nil {
		t.Fatalf("Begin(%s): %v", db, err)
	}
	if _, err := s.Exec(sql, args...); err != nil {
		t.Fatalf("Exec(%s, %q): %v", db, sql, err)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("Commit(%s): %v", db, err)
	}
}

// queryInt reads a single integer value in a fresh read session.
func queryInt(t *testing.T, f *Fleet, db, sql string) int64 {
	t.Helper()
	s, err := f.Begin(db, true)
	if err != nil {
		t.Fatalf("Begin(%s, ro): %v", db, err)
	}
	defer s.Commit()
	row, ok, err := s.QueryRow(sql)
	if err != nil {
		t.Fatalf("QueryRow(%s, %q): %v", db, sql, err)
	}
	if !ok || len(row) == 0 {
		t.Fatalf("QueryRow(%s, %q): no row", db, sql)
	}
	return row[0].Int()
}

func TestHashRouterDeterministicAndTotal(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for i := 0; i < 100; i++ {
			db := fmt.Sprintf("tenant-%d.db", i)
			s1, s2 := route(db, n), route(db, n)
			if s1 != s2 {
				t.Fatalf("nondeterministic route for %s/%d", db, n)
			}
			if s1 < 0 || s1 >= n {
				t.Fatalf("route %d out of range [0,%d)", s1, n)
			}
		}
	}
	// With enough names, every shard of a 4-way fleet gets some.
	hit := make(map[int]bool)
	for i := 0; i < 64; i++ {
		hit[route(fmt.Sprintf("t%d.db", i), 4)] = true
	}
	if len(hit) != 4 {
		t.Fatalf("64 names hit only %d of 4 shards", len(hit))
	}
}

func TestSingleShardPassThrough(t *testing.T) {
	f := newTestFleet(t, 2)
	mustExec(t, f, "a.db", "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, f, "a.db", "INSERT INTO kv VALUES (1, 'one')")
	if got := queryInt(t, f, "a.db", "SELECT COUNT(*) FROM kv"); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	// The database lives on exactly its routed shard.
	shard := f.Route("a.db")
	for i, st := range f.Stacks() {
		has := st.FS.Exists("a.db")
		if (i == shard) != has {
			t.Fatalf("shard %d Exists(a.db) = %v, routed to %d", i, has, shard)
		}
	}
}

// pick returns n database names routed to n distinct shards.
func pickSpread(f *Fleet, n int) []string {
	var out []string
	seen := make(map[int]bool)
	for i := 0; len(out) < n; i++ {
		db := fmt.Sprintf("spread-%d.db", i)
		if s := f.Route(db); !seen[s] {
			seen[s] = true
			out = append(out, db)
		}
	}
	return out
}

func TestCrossShardCommitAndVisibility(t *testing.T) {
	f := newTestFleet(t, 4)
	dbs := pickSpread(f, 3)
	for _, db := range dbs {
		mustExec(t, f, db, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
	}
	tx, err := f.BeginCross(dbs...)
	if err != nil {
		t.Fatalf("BeginCross: %v", err)
	}
	for i, db := range dbs {
		if _, err := tx.Exec(db, fmt.Sprintf("INSERT INTO kv VALUES (1, %d)", 100+i)); err != nil {
			t.Fatalf("tx.Exec(%s): %v", db, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("tx.Commit: %v", err)
	}
	for i, db := range dbs {
		if got := queryInt(t, f, db, "SELECT v FROM kv WHERE k = 1"); got != int64(100+i) {
			t.Fatalf("%s: v = %d, want %d", db, got, 100+i)
		}
	}
	if n := f.CrossTx.Load(); n != 1 {
		t.Fatalf("CrossTx = %d, want 1", n)
	}
}

func TestCrossShardRollback(t *testing.T) {
	f := newTestFleet(t, 2)
	dbs := pickSpread(f, 2)
	for _, db := range dbs {
		mustExec(t, f, db, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
		mustExec(t, f, db, "INSERT INTO kv VALUES (1, 7)")
	}
	tx, err := f.BeginCross(dbs...)
	if err != nil {
		t.Fatalf("BeginCross: %v", err)
	}
	for _, db := range dbs {
		if _, err := tx.Exec(db, "UPDATE kv SET v = 999 WHERE k = 1"); err != nil {
			t.Fatalf("tx.Exec(%s): %v", db, err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("tx.Rollback: %v", err)
	}
	for _, db := range dbs {
		if got := queryInt(t, f, db, "SELECT v FROM kv WHERE k = 1"); got != 7 {
			t.Fatalf("%s: v = %d after rollback, want 7", db, got)
		}
	}
}

// A cross-shard commit whose last participant cannot prepare — its X-L2P
// table is full under a foreign tid, no power is cut — aborts the
// participants already prepared, and not only on flash: the writer
// connections that staged the transaction must forget it too, or the next
// transaction computes from the aborted value.
func TestLiveAbortAfterPrepareLeavesNoTrace(t *testing.T) {
	f := newTestFleet(t, 2)
	dbs := pickSpread(f, 2)
	for _, db := range dbs {
		mustExec(t, f, db, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
		mustExec(t, f, db, "INSERT INTO kv VALUES (1, 7)")
	}
	update := func(sql string) *Tx {
		t.Helper()
		tx, err := f.BeginCross(dbs...)
		if err != nil {
			t.Fatalf("BeginCross: %v", err)
		}
		for _, db := range dbs {
			if _, err := tx.Exec(db, sql); err != nil {
				t.Fatalf("tx.Exec(%s): %v", db, err)
			}
		}
		return tx
	}
	tx := update("UPDATE kv SET v = 999 WHERE k = 1")
	// Shard 1 prepares second: leave it no X-L2P row to stage into.
	dev := f.Stacks()[1].Device
	x, page := dev.XFTL(), make([]byte, dev.PageSize())
	const foreign = 1 << 40
	var err error
	dev.Queue().Exclusive(func() {
		for lpn := ftl.LPN(dev.LogicalPages() - 1); err == nil; lpn-- {
			err = x.WriteTx(foreign, lpn, page)
		}
	})
	if !errors.Is(err, core.ErrTableFull) {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, core.ErrTableFull) {
		t.Fatalf("Commit with shard 1's X-L2P table full: %v, want ErrTableFull", err)
	}
	dev.Queue().Exclusive(func() { err = x.Abort(foreign) })
	if err != nil {
		t.Fatal(err)
	}
	if n := f.CrossAborts.Load(); n != 1 {
		t.Fatalf("CrossAborts = %d, want 1", n)
	}
	for _, db := range dbs {
		if got := queryInt(t, f, db, "SELECT v FROM kv WHERE k = 1"); got != 7 {
			t.Fatalf("%s: v = %d after the aborted commit, want 7", db, got)
		}
	}
	if err := update("UPDATE kv SET v = v + 1 WHERE k = 1").Commit(); err != nil {
		t.Fatalf("next cross-shard commit: %v", err)
	}
	for _, db := range dbs {
		if got := queryInt(t, f, db, "SELECT v FROM kv WHERE k = 1"); got != 8 {
			t.Fatalf("%s: v = %d after v = v + 1 on top of the aborted commit, want 8", db, got)
		}
	}
}

// TestCrossShardPowerCutAtEveryStage cuts power at every stage of the
// 2PC protocol and asserts all-or-nothing: after remount, either every
// participant sees the transaction or none does — and which of the two
// is dictated by whether the coordinator record became durable.
func TestCrossShardPowerCutAtEveryStage(t *testing.T) {
	stages := []string{
		"prepared:0", "prepared:1", "prepared:2",
		"decision-logged",
		"committed:0", "committed:1", "committed:2",
	}
	for _, stage := range stages {
		t.Run(stage, func(t *testing.T) {
			f := newTestFleet(t, 3)
			dbs := pickSpread(f, 3)
			for _, db := range dbs {
				mustExec(t, f, db, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
				mustExec(t, f, db, "INSERT INTO kv VALUES (1, 0)")
			}
			tx, err := f.BeginCross(dbs...)
			if err != nil {
				t.Fatalf("BeginCross: %v", err)
			}
			for _, db := range dbs {
				if _, err := tx.Exec(db, "UPDATE kv SET v = 42 WHERE k = 1"); err != nil {
					t.Fatalf("tx.Exec(%s): %v", db, err)
				}
			}
			cut := stage
			f.SetCrashHook(func(s string) bool { return s == cut })
			err = tx.Commit()
			if err == nil {
				t.Fatalf("Commit survived a power cut at %s", stage)
			}
			f.SetCrashHook(nil)
			if err := f.Remount(); err != nil {
				t.Fatalf("Remount: %v", err)
			}
			if id := f.InDoubt(); len(id) != 0 {
				t.Fatalf("in-doubt after remount: %v", id)
			}
			committed := 0
			for _, db := range dbs {
				if got := queryInt(t, f, db, "SELECT v FROM kv WHERE k = 1"); got == 42 {
					committed++
				} else if got != 0 {
					t.Fatalf("%s: v = %d, want 0 or 42", db, got)
				}
			}
			wantAll := stage == "decision-logged" || strings.HasPrefix(stage, "committed:")
			if wantAll && committed != len(dbs) {
				t.Fatalf("cut at %s: %d/%d participants committed, decision was durable — want all",
					stage, committed, len(dbs))
			}
			if !wantAll && committed != 0 {
				t.Fatalf("cut at %s: %d participants committed before any durable decision — want none",
					stage, committed)
			}
		})
	}
}

// TestCoordinatorAbortNeverResurrects aborts a prepared transaction,
// cuts power, and asserts no shard resurrects it at remount: a durable
// prepare followed by a durable abort stays aborted.
func TestCoordinatorAbortNeverResurrects(t *testing.T) {
	f := newTestFleet(t, 2)
	dbs := pickSpread(f, 2)
	for _, db := range dbs {
		mustExec(t, f, db, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
		mustExec(t, f, db, "INSERT INTO kv VALUES (1, 5)")
	}
	tx, err := f.BeginCross(dbs...)
	if err != nil {
		t.Fatalf("BeginCross: %v", err)
	}
	for _, db := range dbs {
		if _, err := tx.Exec(db, "UPDATE kv SET v = 13 WHERE k = 1"); err != nil {
			t.Fatalf("tx.Exec: %v", err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	f.PowerCut()
	if err := f.Remount(); err != nil {
		t.Fatalf("Remount: %v", err)
	}
	for _, db := range dbs {
		if got := queryInt(t, f, db, "SELECT v FROM kv WHERE k = 1"); got != 5 {
			t.Fatalf("%s: v = %d after aborted tx + remount, want 5", db, got)
		}
	}
}

// TestConcurrentSingleShardWriters drives concurrent writers across the
// fleet under -race: per-shard clocks and queues must be independent.
func TestConcurrentSingleShardWriters(t *testing.T) {
	f := newTestFleet(t, 4)
	const tenants = 8
	dbs := make([]string, tenants)
	for i := range dbs {
		dbs[i] = fmt.Sprintf("w%d.db", i)
		mustExec(t, f, dbs[i], "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
	}
	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for i, db := range dbs {
		wg.Add(1)
		go func(i int, db string) {
			defer wg.Done()
			for n := 0; n < 10; n++ {
				s, err := f.Begin(db, false)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", db, err)
					return
				}
				if _, err := s.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", n+1, i)); err != nil {
					errs <- fmt.Errorf("%s: %w", db, err)
					_ = s.Rollback()
					return
				}
				if err := s.Commit(); err != nil {
					errs <- fmt.Errorf("%s: %w", db, err)
					return
				}
			}
		}(i, db)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, db := range dbs {
		if got := queryInt(t, f, db, "SELECT COUNT(*) FROM kv"); got != 10 {
			t.Fatalf("%s: count = %d, want 10", db, got)
		}
	}
}

// TestConcurrentClose closes fleet members concurrently while other
// goroutines submit work: closing one member must not wedge another's
// drain, and stragglers fail fast with ErrQueueClosed instead of
// touching a closed device.
func TestConcurrentClose(t *testing.T) {
	f, err := New(Options{Shards: 4, Profile: xftl.OpenSSD(), Mode: xftl.ModeXFTL})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stacks := f.Stacks()
	var wg sync.WaitGroup
	// Writers hammer each stack while Close runs concurrently.
	for _, st := range stacks {
		wg.Add(1)
		go func(st *xftl.Stack) {
			defer wg.Done()
			buf := make([]byte, st.Device.PageSize())
			for i := int64(0); i < 200; i++ {
				if err := st.Device.Queue().SubmitWait(&ncq.Request{Op: ncq.OpWrite, LPN: i % 64, Data: buf}); err != nil {
					return // ErrQueueClosed once Close lands — expected
				}
			}
		}(st)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	// Post-close submissions fail fast with the sentinel.
	for i, st := range stacks {
		err := st.Device.Queue().SubmitWait(&ncq.Request{Op: ncq.OpWrite, Data: make([]byte, st.Device.PageSize())})
		if err == nil {
			t.Fatalf("stack %d accepted a write after Close", i)
		}
		if !strings.Contains(err.Error(), ncq.ErrQueueClosed.Error()) {
			t.Fatalf("stack %d post-close error = %v, want ErrQueueClosed", i, err)
		}
	}
	// Close is idempotent.
	for _, st := range stacks {
		if err := st.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
}

// TestFleetMetrics asserts one registry carries every member's device
// families under its shard label, the session manager of an opened
// database on its owning shard, and the fleet's 2PC counters.
func TestFleetMetrics(t *testing.T) {
	f := newTestFleet(t, 2)
	mustExec(t, f, "g.db", "CREATE TABLE t (a INTEGER)")
	var b strings.Builder
	if err := f.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	owner := strconv.Itoa(f.Route("g.db"))
	for _, want := range []string{
		`xftl_flash_page_writes_total{shard="0"} `,
		`xftl_flash_page_writes_total{shard="1"} `,
		`xftl_host_page_writes_total{shard="` + owner + `",class="db"} `,
		`xftl_busy_timeouts_total{shard="` + owner + `",db="g.db"} 0`,
		"xftl_cross_tx_total 0",
	} {
		if !strings.Contains(b.String(), "\n"+want) {
			t.Errorf("no series %s in:\n%s", want, b.String())
		}
	}
	if strings.Contains(b.String(), `xftl_host_page_writes_total{shard="`+owner+`",class="db"} 0`) {
		t.Errorf("shard %s took the CREATE TABLE but reports no database page write", owner)
	}
}
