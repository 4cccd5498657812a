package main

import (
	"sync"
	"time"
)

// Box-speed calibration.
//
// The reference box is a two-vCPU share of a busy host. What its
// neighbours do to the shared cache and memory slows every workload here
// by 10–40 % for seconds to hours at a time: CPU time rises with wall
// time, steal time stays at zero, and no statistic over one run's
// segments can see it, because the whole run is slow. A fixed memory
// kernel run beside the workload slows by the same factor (README.md,
// "Box-speed normalisation", has the measurements), so every end-to-end
// time on the host clock is divided by
//
//	slowdown = kernel time now / calRefUs
//
// sampled right around the interval being timed. The kernel is the
// benchmark's own and calls nothing of the program, so a change to the
// program cannot move it.
const (
	// calBytes is twice a core's L2: a pass spills into the cache and
	// memory the neighbours share, which is where the workloads' time
	// goes too (2 GB heaps, 8 KB page copies).
	calBytes = 4 << 20
	// calRefUs is one sample on the reference box when its neighbours are
	// quiet. It only fixes the scale: normalised figures read like raw
	// ones measured on a quiet box.
	calRefUs = 1400.0
	// calEvery is the sampling period while a set-up runs.
	calEvery = 100 * time.Millisecond
)

type calibrator struct {
	bufs [][]byte
	sums []uint64 // keeps the read pass alive
}

// pass writes and reads buffer c once and returns how long that took,
// in µs.
func (k *calibrator) pass(c int) float64 {
	buf := k.bufs[c]
	t0 := time.Now()
	for i := range buf {
		buf[i] = byte(i)
	}
	var sum uint64
	for i := 0; i < len(buf); i += 64 {
		sum += uint64(buf[i])
	}
	k.sums[c] += sum
	return float64(time.Since(t0).Nanoseconds()) / 1e3
}

// measure is one sample on buffer c: the faster of two passes after a
// discarded one. Straight after the workload's ops the first pass is a
// fifth slower than the next and scatters twice as much (it pulls the
// buffer back from wherever the ops pushed it); the later ones follow
// the box.
func (k *calibrator) measure(c int) float64 {
	k.pass(c)
	return min(k.pass(c), k.pass(c))
}

// sample measures on n threads at once — as many as the interval being
// timed keeps busy — and returns the mean in µs.
func (k *calibrator) sample(n int) float64 {
	for len(k.bufs) < n {
		k.bufs = append(k.bufs, make([]byte, calBytes))
		k.sums = append(k.sums, 0)
	}
	times := make([]float64, n)
	var wg sync.WaitGroup
	for c := 1; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			times[c] = k.measure(c)
		}(c)
	}
	times[0] = k.measure(0)
	wg.Wait()
	var sum float64
	for _, t := range times {
		sum += t
	}
	return sum / float64(n)
}

// watch samples single-threaded box speed every calEvery until the
// returned stop is called; stop returns the slowdown over the interval.
// A set-up is mostly one thread, so the sampler runs on the other core.
func (k *calibrator) watch() (stop func() float64) {
	sum, n := k.sample(1), 1
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(calEvery)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				sum += k.sample(1)
				n++
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		sum += k.sample(1)
		return sum / float64(n+1) / calRefUs
	}
}
