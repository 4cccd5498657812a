package bench

import "testing"

// The rwconc acceptance property: snapshot readers at 8 channels beat
// the serialized rollback-journal baseline by at least 3x while one
// writer streams updates. The quick configuration is small but keeps
// the same shape (8-channel MVCC point + degraded leg + serialized
// control), so the ratio holds here too — the full run only widens it.
func TestRWConcQuick(t *testing.T) {
	res, err := RunRWConc(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("quick sweep: got %d points, want 6", len(res.Points))
	}
	for _, p := range res.Points {
		if p.ReaderTx == 0 || p.ReaderTPS == 0 {
			t.Fatalf("%s: no reader transactions measured: %+v", p.Label, p)
		}
		if p.WriterTx == 0 {
			t.Fatalf("%s: writer made no progress (reader throughput would be unopposed)", p.Label)
		}
	}
	mvcc8 := res.point("mvcc ch=8")
	if mvcc8.SnapReads == 0 {
		t.Fatal("MVCC arm issued no device-level snapshot reads")
	}
	if s := res.ReaderSpeedup(8); s < 3 {
		t.Fatalf("reader speedup at 8 channels: %.2fx, want >= 3x", s)
	}
	// The pooled arm must hit its warm pool in steady state, and the
	// WAL concurrent-reader arm must actually read through log views.
	pooled := res.point("mvcc ch=8 pooled")
	if pooled == nil || pooled.PoolHitRatio < 0.9 {
		t.Fatalf("pooled arm hit ratio: %+v, want >= 0.9", pooled)
	}
	wal := res.point("wal ch=8")
	if wal == nil || wal.Journal != "wal" {
		t.Fatalf("wal arm missing or mislabeled: %+v", wal)
	}
	// Short-read microbenchmark: a pooled point read must at least
	// halve the cold-open p50 (it does no device I/O at all).
	if res.ShortReadSpeedup < 2 {
		t.Fatalf("short-read speedup %.1fx (pooled p50 %v vs cold %v), want >= 2x",
			res.ShortReadSpeedup, res.ShortPooledP50, res.ShortColdP50)
	}
	// The writers x channels sweep. How large the groups get is the
	// scheduler's business (mvcc's own tests force them); what always
	// holds: one writer is a group of one, a group never exceeds the
	// writers there are, and company costs a writer neither flash pages
	// nor — beyond queueing noise — throughput.
	if len(res.Writers) != 3*2 {
		t.Fatalf("writers sweep: got %d cells, want 3 writer counts x 2 channel counts", len(res.Writers))
	}
	alone := map[int]*RWPoint{}
	for _, p := range res.Writers {
		if p.Writers == 1 {
			alone[p.Channels] = p
		}
	}
	for _, p := range res.Writers {
		one := alone[p.Channels]
		if p.WriterTx != int64(p.Writers)*one.WriterTx || p.GroupSize < 1 || p.GroupSize > float64(p.Writers) ||
			p.FlashPerTx > 1.05*one.FlashPerTx || p.WriterTPS < 0.9*one.WriterTPS {
			t.Fatalf("%s: %d tx, %.0f tx/s, %.1f pages/tx, groups of %.2f; alone: %d tx, %.0f tx/s, %.1f pages/tx",
				p.Label, p.WriterTx, p.WriterTPS, p.FlashPerTx, p.GroupSize, one.WriterTx, one.WriterTPS, one.FlashPerTx)
		}
	}
	if tbl := res.WritersTable(); len(tbl.RowData) != len(res.Writers) {
		t.Fatalf("writers table: %d rows for %d cells", len(tbl.RowData), len(res.Writers))
	}
	// Rendering must not panic and should report the speedup note.
	if tbl := res.Table(); len(tbl.RowData) != 6 || len(tbl.Notes) == 0 {
		t.Fatalf("table: %d rows, %d notes", len(tbl.RowData), len(tbl.Notes))
	}
}

// The degraded leg must run on a visibly sick array (a quarantined
// unit, injected stalls tripping deadlines) and still keep the reader
// tail bounded by the deadline x retry budget rather than the raw
// stall length: functional isolation, graceful performance cost.
func TestRWConcDegradedBoundedTail(t *testing.T) {
	res, err := RunRWConc(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.point("mvcc ch=8 degraded")
	if p == nil {
		t.Fatal("no degraded point in the sweep")
	}
	if p.QuarantinedUnits == 0 {
		t.Error("degraded point ran with no unit quarantined")
	}
	if p.Timeouts == 0 || p.Retries == 0 {
		t.Errorf("injected stalls tripped no deadlines (timeouts=%d retries=%d)", p.Timeouts, p.Retries)
	}
	if p.ReaderTx == 0 || p.WriterTx == 0 {
		t.Fatalf("degraded point starved a side: readerTx=%d writerTx=%d", p.ReaderTx, p.WriterTx)
	}
	// Worst case per command: every attempt burns a deadline plus the
	// doubling backoff before the budget exhausts. The observed p99 must
	// sit well inside that, and far under any multi-stall pile-up.
	bound := rwDegradedDeadline * rwDegradedRetries * 4
	if p.ReaderLat.Count > 0 && p.ReaderLat.P99 > bound {
		t.Errorf("degraded reader p99 %v exceeds the retry-budget bound %v", p.ReaderLat.P99, bound)
	}
}
