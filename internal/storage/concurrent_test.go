package storage

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nand"
	"repro/internal/ncq"
	"repro/internal/simclock"
)

// TestConcurrentStressWithPowerCut drives a transactional device from
// several goroutines at full queue depth — mixed reads, plain writes,
// transactional writes and commits — arms a power cut that lands in the
// middle of the in-flight stream, restarts, and checks that every
// transaction whose commit completed before the cut is durable. Run
// with -race; the submitters genuinely overlap on the queue lock, the
// atomic counters and the histograms.
func TestConcurrentStressWithPowerCut(t *testing.T) {
	const (
		workers     = 4
		opsPer      = 300
		lpnsPer     = 24
		commitEvery = 8
	)
	d, err := New(smallProfile(), simclock.New(), Options{Transactional: true, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	q := d.Queue()

	// Oracle of committed state: lpn -> stamp recorded only after the
	// commit covering it returned success. inDoubt holds stamps whose
	// commit was interrupted (they may land either way).
	var (
		mu        sync.Mutex
		committed = map[int64]uint64{}
		inDoubt   = map[int64]uint64{}
		sawCut    bool
	)

	page := func(d *Device, lpn int64, stamp uint64) []byte {
		b := make([]byte, d.PageSize())
		binary.LittleEndian.PutUint64(b, stamp)
		binary.LittleEndian.PutUint64(b[8:], uint64(lpn))
		return b
	}

	// Arm the cut once the stream is flowing: worker 0 signals after
	// enough ops that all workers are submitting, then holds its own
	// remaining 250 ops (more than enough NAND work to reach the cut)
	// until the cut is armed, so a slow-to-schedule sampler cannot miss
	// the stream. The other workers keep submitting meanwhile.
	flowing := make(chan struct{})
	armed := make(chan struct{})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			base := int64(w * lpnsPer)
			tid := uint64(w + 1)
			pendingTx := map[int64]uint64{} // uncommitted stamps this tx
			stamp := uint64(w) << 32
			buf := make([]byte, d.PageSize())
			for i := 0; i < opsPer; i++ {
				if w == 0 && i == 50 {
					close(flowing)
					<-armed
				}
				lpn := base + rng.Int63n(lpnsPer)
				var r ncq.Request
				switch {
				case i%commitEvery == commitEvery-1:
					r = ncq.Request{Op: ncq.OpCommit, TID: tid}
				case rng.Intn(5) == 0:
					r = ncq.Request{Op: ncq.OpRead, LPN: lpn, Buf: buf}
				default:
					stamp++
					r = ncq.Request{Op: ncq.OpWriteTx, TID: tid, LPN: lpn, Data: page(d, lpn, stamp)}
				}
				err := q.Submit(&r)
				if err != nil {
					// The command that trips the cut returns
					// nand.ErrPowerLost; anything submitted after it sees
					// the poisoned firmware's core.ErrPowerCut.
					if errors.Is(err, nand.ErrPowerLost) || errors.Is(err, core.ErrPowerCut) {
						mu.Lock()
						sawCut = true
						if r.Op == ncq.OpCommit {
							for l, s := range pendingTx {
								inDoubt[l] = s
							}
						}
						mu.Unlock()
						return
					}
					t.Errorf("worker %d op %d (%v): %v", w, i, r.Op, err)
					return
				}
				switch r.Op {
				case ncq.OpWriteTx:
					pendingTx[r.LPN] = stamp
				case ncq.OpCommit:
					mu.Lock()
					for l, s := range pendingTx {
						committed[l] = s
					}
					mu.Unlock()
					pendingTx = map[int64]uint64{}
				}
			}
		}(w)
	}

	// Sample the race-sensitive accessors while submitters run, then
	// land the cut mid-queue.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-flowing
		_ = d.Commands()
		_ = d.NANDOps()
		_ = q.InFlight()
		_ = q.WriteLat.Snapshot()
		_ = q.Depths.Mean()
		d.PowerCutAfter(400)
		close(armed)
	}()
	wg.Wait()

	mu.Lock()
	cut := sawCut
	mu.Unlock()
	if !cut {
		t.Fatal("power cut never tripped; stress stream too short")
	}

	if err := d.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	buf := make([]byte, d.PageSize())
	for lpn, want := range committed {
		if err := do(d, ncq.Request{Op: ncq.OpRead, LPN: lpn, Buf: buf}); err != nil {
			t.Fatalf("Read(%d) after recovery: %v", lpn, err)
		}
		got := binary.LittleEndian.Uint64(buf)
		if got == want {
			continue
		}
		if alt, ok := inDoubt[lpn]; ok && got == alt {
			continue // interrupted commit landed; atomicity is torture's job
		}
		t.Errorf("lpn %d = stamp %#x after recovery, want committed %#x", lpn, got, want)
	}

	// The device must be fully usable again, including at depth.
	for i := 0; i < 40; i++ {
		if err := q.Submit(&ncq.Request{Op: ncq.OpWrite, LPN: int64(i % 8), Data: page(d, int64(i%8), 1)}); err != nil {
			t.Fatalf("post-recovery write %d: %v", i, err)
		}
	}
	if err := do(d, ncq.Request{Op: ncq.OpBarrier}); err != nil {
		t.Fatalf("post-recovery barrier: %v", err)
	}
}
