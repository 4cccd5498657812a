package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/storage"
	"repro/internal/trace"
)

// A measured phase is cut into equal-op segments. The box's speed is
// sampled at every boundary (boxspeed.go), each segment's time is
// corrected by the samples on either side of it, and every host-clock
// figure is a median over segments, so neither a noisy-neighbour
// episode nor a slow hour moves the result. The end-to-end pass uses
// segments of about 80 ms at the reference quotas; the traced pass and
// -quick runs have a seventh and a fiftieth of the ops and fewer,
// longer segments.
const (
	segments      = 98
	shortSegments = 14
	// tracedShare: the traced pass's two phases each run this fraction of
	// the end-to-end pass's ops.
	tracedShare = 7
)

// instance is one workload after set-up: a built stack and its
// closed-loop clients. The harness owns pacing, timing and sampling; the
// instance owns what one op is.
type instance interface {
	// clients is the number of closed-loop client goroutines (or
	// connections); never more than nproc.
	clients() int
	// share splits n ops over the clients; the parts sum to n.
	share(n int) []int
	// op runs client c's next operation. virt is the op's virtual-time
	// latency (negative: this workload does not report one). A non-nil
	// error counts the op as failed; the instance must stay usable.
	op(c int, sp *spans) (virt time.Duration, err error)
	// device is the modelled flash device under the workload: its
	// virtual clock, its queue (drained before the clock is read) and
	// its geometry.
	device() *storage.Device
	// attach installs the tracer on every layer of the stack (nil
	// removes it). Called only while no op is running.
	attach(t *trace.Tracer)
	// counters snapshots every public layer counter the stack has.
	counters() layerCounters
	// verify checks the program's outputs after the run and returns how
	// many checks it made and how many mismatched.
	verify() (checks, mismatches int, err error)
	close() error
}

// phaseResult is one measured phase: fixed op count, split in segments.
type phaseResult struct {
	ops      int
	failed   int
	firstErr error     // the first failed op's error, for the operator
	segRates []float64 // ops/s per segment, as timed
	slowdown []float64 // box slowdown per segment (1 = the quiet reference box)
	hostNs   []int64   // per-op host latency, sorted, as timed
	normNs   []int64   // the same, each divided by its segment's slowdown, sorted
	virtNs   []int64   // per-op virtual latency, sorted (nil when not reported)
	cpu      time.Duration
	gcCPU    float64 // seconds of Go GC CPU
	mallocs  uint64
	allocKB  float64
	virt     time.Duration // virtual time elapsed after drain
	before   layerCounters
	after    layerCounters
	spans    spans
}

// normRates is what each segment's rate would have been on the quiet
// reference box.
func (p *phaseResult) normRates() []float64 {
	out := make([]float64, len(p.segRates))
	for i, r := range p.segRates {
		out[i] = r * p.slowdown[i]
	}
	return out
}

func (p *phaseResult) hostOpsPerS() float64 { return median(p.normRates()) }

// meanSlowdown is how much slower than the quiet reference box the box
// was over the phase.
func (p *phaseResult) meanSlowdown() float64 {
	var sum float64
	for _, f := range p.slowdown {
		sum += f
	}
	return ratio(sum, float64(len(p.slowdown)))
}

// meanHostNs is the mean per-op host latency: the denominator of the
// host ladder (with two clients it is twice the inverse rate).
func (p *phaseResult) meanHostNs() float64 {
	var sum int64
	for _, v := range p.hostNs {
		sum += v
	}
	return ratio(float64(sum), float64(len(p.hostNs)))
}

// segmentSpread is how far the phase's sevenths disagree: the
// interquartile range of their normalised rates as a share of the
// median. (Over the short segments themselves it would mostly measure
// how short they are.)
func (p *phaseResult) segmentSpread() float64 {
	fine := p.normRates()
	per := len(fine) / 7
	if per == 0 {
		return 0
	}
	s := make([]float64, 7)
	for j := range s {
		var inv float64 // equal ops per segment: times add, rates do not
		for _, r := range fine[j*per : (j+1)*per] {
			inv += 1 / r
		}
		s[j] = float64(per) / inv
	}
	slices.Sort(s)
	return ratio(s[5]-s[1], median(s))
}

// clientRec is one client's private sample buffers, preallocated so the
// harness adds no allocation to the measured phase.
type clientRec struct {
	hostNs []int64
	virtNs []int64
	failed int
	err    error
	sp     spans
}

// runPhase drives ops operations through the instance in nseg segments
// and samples both clocks around them. withSpans turns on the
// benchmark's own spans around its calls into the top layer (traced pass
// only).
func runPhase(in instance, cal *calibrator, ops, nseg int, withSpans bool) (*phaseResult, error) {
	nc := in.clients()
	ops -= ops % (nseg * nc)
	if ops <= 0 {
		return nil, fmt.Errorf("phase too small: %d ops", ops)
	}
	perSeg := in.share(ops / nseg)
	recs := make([]*clientRec, nc)
	for c := range recs {
		n := perSeg[c] * nseg
		recs[c] = &clientRec{hostNs: make([]int64, 0, n), virtNs: make([]int64, 0, n)}
		recs[c].sp.on = withSpans
	}
	res := &phaseResult{ops: ops, segRates: make([]float64, 0, nseg), slowdown: make([]float64, 0, nseg)}

	dev := in.device()
	dev.Queue().Drain()
	res.before = in.counters()
	v0 := dev.Clock().Now()
	// Each client ends its share of a segment with one sample of the
	// calibration kernel, on its own thread (from a freshly woken
	// goroutine the kernel's time scatters by ±25 %). A segment ends
	// when its last op does: the kernel's time is in no segment.
	calBefore := cal.sample(nc)
	calUs := 0.0 // CPU the kernel used inside the window sampled below
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	cpu0 := processCPU()
	opsEnd, calT := make([]time.Time, nc), make([]float64, nc)
	for s := 0; s < nseg; s++ {
		segStart := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < nc; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rec := recs[c]
				for i := 0; i < perSeg[c]; i++ {
					t0 := time.Now()
					virt, err := in.op(c, &rec.sp)
					rec.hostNs = append(rec.hostNs, int64(time.Since(t0)))
					if err != nil {
						if rec.failed++; rec.err == nil {
							rec.err = err
						}
						continue
					}
					if virt >= 0 {
						rec.virtNs = append(rec.virtNs, int64(virt))
					}
				}
				opsEnd[c] = time.Now()
				calT[c] = cal.measure(c)
			}(c)
		}
		wg.Wait()
		segEnd, calAfter := opsEnd[0], 0.0
		for c := range opsEnd {
			if opsEnd[c].After(segEnd) {
				segEnd = opsEnd[c]
			}
			calAfter += calT[c] / float64(nc)
		}
		res.segRates = append(res.segRates, float64(ops/nseg)/segEnd.Sub(segStart).Seconds())
		res.slowdown = append(res.slowdown, (calBefore+calAfter)/2/calRefUs)
		calBefore = calAfter
		calUs += 3.2 * calAfter * float64(nc) // a sample is three passes, the first a fifth slower
	}
	res.cpu = processCPU() - cpu0 - time.Duration(calUs*1e3)
	res.gcCPU = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&ms1)
	dev.Queue().Drain()
	res.virt = dev.Clock().Now() - v0
	res.after = in.counters()
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.allocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024

	for c, rec := range recs {
		res.failed += rec.failed
		if res.firstErr == nil {
			res.firstErr = rec.err
		}
		res.hostNs = append(res.hostNs, rec.hostNs...)
		res.virtNs = append(res.virtNs, rec.virtNs...)
		res.spans.merge(&rec.sp)
		// Every op, failed or not, left one sample, so a client's i-th
		// sample belongs to segment i / perSeg.
		for i, ns := range rec.hostNs {
			res.normNs = append(res.normNs, int64(float64(ns)/res.slowdown[i/perSeg[c]]))
		}
	}
	slices.Sort(res.hostNs)
	slices.Sort(res.normNs)
	slices.Sort(res.virtNs)
	return res, nil
}

// warm runs n untimed ops so first-touch page faults, heap growth and
// cold caches are paid before the measured phase.
func warm(in instance, n int) (failed int) {
	nc := in.clients()
	parts := in.share(n - n%nc)
	var wg sync.WaitGroup
	fails := make([]int, nc)
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var sp spans
			for i := 0; i < parts[c]; i++ {
				if _, err := in.op(c, &sp); err != nil {
					fails[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	for _, f := range fails {
		failed += f
	}
	return failed
}

// evenShare splits n ops equally over nc clients.
func evenShare(n, nc int) []int {
	out := make([]int, nc)
	for c := range out {
		out[c] = n / nc
	}
	out[0] += n % nc
	return out
}

// processCPU is user+system CPU time of this process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// gcCPUSeconds is the Go collector's cumulative CPU time.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// allocCounter reads the cumulative heap allocation count without
// stopping the world, so spans can afford it. One per goroutine.
type allocCounter [2]metrics.Sample

func (a *allocCounter) read() uint64 {
	a[0].Name, a[1].Name = "/gc/heap/allocs:objects", "/gc/heap/tiny/allocs:objects"
	metrics.Read(a[:])
	return a[0].Value.Uint64() + a[1].Value.Uint64()
}

// spanKind names the calls a workload makes into the top layer it
// drives; the traced pass times each.
type spanKind int

const (
	spBegin spanKind = iota
	spSelect
	spUpdate
	spCommit
	spSubmit
	numSpanKinds
)

// spanAllocEvery is how often a span also counts its allocations: the
// counter read costs about as much as a cached SELECT, so it is
// sampled, with a prime period so every position in a transaction gets
// its turn.
const spanAllocEvery = 17

// spans accumulates the benchmark's own spans: count and host time per
// kind, allocations on a sample. Kept in memory, reported at exit.
type spans struct {
	on     bool
	n      [numSpanKinds]int64
	ns     [numSpanKinds]int64
	allocN [numSpanKinds]int64
	allocs [numSpanKinds]uint64
	t0     time.Time
	ac     allocCounter
	a0     uint64
	tick   int
	sample bool
}

// open starts a span; the caller closes it with done right after the
// call it wraps.
func (s *spans) open() {
	if !s.on {
		return
	}
	s.tick++
	s.sample = s.tick%spanAllocEvery == 0
	if s.sample {
		s.a0 = s.ac.read()
	}
	s.t0 = time.Now()
}

func (s *spans) done(k spanKind) {
	if !s.on {
		return
	}
	s.ns[k] += int64(time.Since(s.t0))
	s.n[k]++
	if s.sample {
		s.allocs[k] += s.ac.read() - s.a0
		s.allocN[k]++
	}
}

func (s *spans) merge(o *spans) {
	for k := range s.n {
		s.n[k] += o.n[k]
		s.ns[k] += o.ns[k]
		s.allocN[k] += o.allocN[k]
		s.allocs[k] += o.allocs[k]
	}
}

// hop is one layer boundary's cost per call on all three axes.
type hop struct {
	ns     float64
	allocs float64
	virtUs float64
}

func (s *spans) hop(k spanKind) hop {
	return hop{
		ns:     ratio(float64(s.ns[k]), float64(s.n[k])),
		allocs: ratio(float64(s.allocs[k]), float64(s.allocN[k])),
	}
}

// totalNs is host time inside any span.
func (s *spans) totalNs() int64 {
	var t int64
	for _, v := range s.ns {
		t += v
	}
	return t
}
