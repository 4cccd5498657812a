package synth

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/simfs"
	"repro/internal/sqlite"
	"repro/internal/sqlite/pager"
	"repro/internal/storage"
)

func smallDB(t *testing.T, mode pager.JournalMode) *sqlite.DB {
	t.Helper()
	db, _ := smallStack(t, mode)
	return db
}

func smallStack(t *testing.T, mode pager.JournalMode) (*sqlite.DB, *storage.Device) {
	t.Helper()
	prof := storage.OpenSSD()
	prof.Nand.Blocks = 512
	prof.Nand.PagesPerBlock = 32
	prof.Nand.PageSize = 2048
	transactional := mode == pager.Off
	fsMode := simfs.Ordered
	if transactional {
		fsMode = simfs.OffXFTL
	}
	dev, err := storage.New(prof, simclock.New(), storage.Options{Transactional: transactional})
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := simfs.New(dev, fsMode, &metrics.HostCounters{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sqlite.Open(fsys, "synth.db", sqlite.Config{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return db, dev
}

func smallConfig() Config {
	return Config{Tuples: 500, TupleBytes: 220, UpdatesPerTxn: 5, Transactions: 40, Seed: 3}
}

func TestLoadAndRun(t *testing.T) {
	for _, mode := range []pager.JournalMode{pager.Rollback, pager.WAL, pager.Off} {
		t.Run(mode.String(), func(t *testing.T) {
			db := smallDB(t, mode)
			defer db.Close()
			cfg := smallConfig()
			if err := Load(db, cfg); err != nil {
				t.Fatalf("Load: %v", err)
			}
			row, ok, err := db.QueryRow(`SELECT COUNT(*) FROM partsupp`)
			if err != nil || !ok || row[0].Int() != int64(cfg.Tuples) {
				t.Fatalf("count = %v, %v", row, err)
			}
			st, err := Run(db, cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if st.Committed != cfg.Transactions {
				t.Errorf("committed = %d, want %d", st.Committed, cfg.Transactions)
			}
			if st.TuplesUpdated != cfg.Transactions*cfg.UpdatesPerTxn {
				t.Errorf("updated = %d", st.TuplesUpdated)
			}
		})
	}
}

func TestTupleSize(t *testing.T) {
	db := smallDB(t, pager.Off)
	defer db.Close()
	cfg := smallConfig()
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	row, _, err := db.QueryRow(`SELECT LENGTH(ps_comment) FROM partsupp WHERE ps_partkey = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := row[0].Int(); got != 200 {
		t.Errorf("comment bytes = %d, want 200 (tuple ~220 B)", got)
	}
}

func TestAborts(t *testing.T) {
	db := smallDB(t, pager.Off)
	defer db.Close()
	cfg := smallConfig()
	cfg.AbortEvery = 4
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	st, err := Run(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Aborted != int(cfg.Transactions/4) {
		t.Errorf("aborted = %d, want %d", st.Aborted, cfg.Transactions/4)
	}
	if st.Committed+st.Aborted != cfg.Transactions {
		t.Errorf("committed+aborted = %d", st.Committed+st.Aborted)
	}
}

// TestDeterminism: the same seed gives the same answer and — since the
// pager, simfs and X-FTL issue their page lists in sorted rather than
// map order — the same flash: every counter, the virtual clock and the
// physical page of every logical page repeat exactly, in all three
// journal modes.
func TestDeterminism(t *testing.T) {
	type outcome struct {
		sum   int64
		flash metrics.FlashSnapshot
		virt  time.Duration
		l2p   uint64 // FNV-1a over the whole logical-to-physical table
	}
	run := func(t *testing.T, mode pager.JournalMode) outcome {
		db, dev := smallStack(t, mode)
		defer db.Close()
		cfg := smallConfig()
		if err := Load(db, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(db, cfg); err != nil {
			t.Fatal(err)
		}
		row, _, err := db.QueryRow(`SELECT SUM(ps_supplycost) FROM partsupp`)
		if err != nil {
			t.Fatal(err)
		}
		dev.Queue().Drain()
		h := fnv.New64a()
		var b [8]byte
		for lpn := int64(0); lpn < dev.LogicalPages(); lpn++ {
			binary.LittleEndian.PutUint64(b[:], uint64(dev.FTL().Mapping(ftl.LPN(lpn))))
			h.Write(b[:])
		}
		return outcome{
			sum:   int64(row[0].Real() * 100),
			flash: dev.FlashStats().Snapshot(),
			virt:  dev.Clock().Now(),
			l2p:   h.Sum64(),
		}
	}
	for _, mode := range []pager.JournalMode{pager.Rollback, pager.WAL, pager.Off} {
		t.Run(mode.String(), func(t *testing.T) {
			if a, b := run(t, mode), run(t, mode); a != b {
				t.Errorf("runs diverged:\n%+v\n%+v", a, b)
			}
		})
	}
}
