package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ncq"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/trace"
)

// mtenant_tx: device layers only. Tenants submit transactional page
// writes straight into the NCQ queue; no SQL, no file system.
const (
	mtTenants     = 2
	mtRegion      = 4096 // pages per tenant, disjoint
	mtCommitEvery = 8
	mtChannels    = 8
	mtDepth       = 32
)

// mtTenant is one submitter. Every page it writes starts with its write
// sequence number, so a read-back tells which write a page holds.
type mtTenant struct {
	id      int
	rng     *rand.Rand
	data    []byte
	seq     uint64
	open    [mtCommitEvery]int // region offsets written by the open transaction
	nOpen   int
	lastSeq []uint64 // per region offset: sequence of the last write
	durable []uint64 // per region offset: sequence of the last committed write
}

type mtInstance struct {
	dev     *storage.Device
	tenants [mtTenants]*mtTenant
}

// wideProfile is the OpenSSD board with the 8-channel array the
// concurrent workloads run on.
func wideProfile() storage.Profile {
	prof := storage.OpenSSD()
	prof.Nand.Channels = mtChannels
	prof.Nand.Ways = 1
	prof.Channels = mtChannels
	return prof
}

func setupMTenant(e env) (instance, error) {
	dev, err := storage.New(wideProfile(), simclock.New(), storage.Options{Transactional: true, QueueDepth: mtDepth})
	if err != nil {
		return nil, err
	}
	in := &mtInstance{dev: dev}
	for t := range in.tenants {
		rng := rand.New(rand.NewSource(e.seed + int64(t)*7919))
		data := make([]byte, dev.PageSize())
		rng.Read(data)
		in.tenants[t] = &mtTenant{
			id: t, rng: rng, data: data,
			lastSeq: make([]uint64, mtRegion), durable: make([]uint64, mtRegion),
		}
	}
	// Write every page of every region once, so each measured write is
	// an overwrite of a mapped page from the first op on.
	var sp spans
	for c, t := range in.tenants {
		for off := 0; off < mtRegion; off++ {
			if _, err := in.write(c, off, &sp); err != nil {
				return nil, fmt.Errorf("precondition: %w", err)
			}
		}
		if t.nOpen != 0 {
			return nil, fmt.Errorf("precondition: region %d is not a whole number of transactions", mtRegion)
		}
	}
	return in, nil
}

func (in *mtInstance) clients() int            { return mtTenants }
func (in *mtInstance) share(n int) []int       { return evenShare(n, mtTenants) }
func (in *mtInstance) device() *storage.Device { return in.dev }
func (in *mtInstance) counters() layerCounters { return deviceCounters(in.dev) }
func (in *mtInstance) close() error            { in.dev.Queue().Close(); return nil }

func (in *mtInstance) attach(t *trace.Tracer) {
	t.Attach(in.dev.Clock(), "traced")
	in.dev.SetTracer(t)
}

// op is one random 1-page OpWriteTx, followed by OpCommit on every
// eighth. The op's virtual latency is the write's queue-to-completion
// time as the device reports it.
func (in *mtInstance) op(c int, sp *spans) (time.Duration, error) {
	return in.write(c, in.tenants[c].rng.Intn(mtRegion), sp)
}

func (in *mtInstance) write(c, off int, sp *spans) (time.Duration, error) {
	t := in.tenants[c]
	q := in.dev.Queue()
	t.seq++
	binary.LittleEndian.PutUint64(t.data, t.seq)
	req := ncq.Request{
		Op: ncq.OpWriteTx, TID: uint64(c + 1),
		LPN: int64(c*mtRegion + off), Data: t.data,
	}
	sp.open()
	err := q.Submit(&req)
	sp.done(spSubmit)
	if err != nil {
		return 0, fmt.Errorf("tenant %d write: %w", c, err)
	}
	t.lastSeq[off] = t.seq
	t.open[t.nOpen] = off
	t.nOpen++
	if t.nOpen == mtCommitEvery {
		commit := ncq.Request{Op: ncq.OpCommit, TID: uint64(c + 1)}
		sp.open()
		err := q.Submit(&commit)
		sp.done(spCommit)
		if err != nil {
			return 0, fmt.Errorf("tenant %d commit: %w", c, err)
		}
		for _, o := range t.open {
			t.durable[o] = t.lastSeq[o]
		}
		t.nOpen = 0
	}
	return req.Done - req.Submitted, nil
}

// verify reads back every page a tenant has committed and checks it
// holds the last committed write: not an older one, and not a write of
// the transaction still open (a plain read must not see those).
func (in *mtInstance) verify() (checks, mismatches int, err error) {
	buf := make([]byte, in.dev.PageSize())
	for c, t := range in.tenants {
		for off, want := range t.durable {
			if want == 0 {
				continue
			}
			r := ncq.Request{Op: ncq.OpRead, LPN: int64(c*mtRegion + off), Buf: buf}
			if err := in.dev.Queue().SubmitWait(&r); err != nil {
				return checks, mismatches, fmt.Errorf("tenant %d read-back: %w", c, err)
			}
			checks++
			if binary.LittleEndian.Uint64(buf) != want {
				mismatches++
			}
		}
	}
	return checks, mismatches, nil
}
