// Latency and queue-occupancy histograms for the NCQ command path.
// Both are safe for concurrent use: the queue observes under its own
// lock, but benches and tests may snapshot while submitters run.
package metrics

import (
	"math/bits"
	"sync"
	"time"
)

// latBuckets is the number of log2 buckets in a LatencyHist. Bucket i
// holds observations in [2^(i-1), 2^i) microseconds (bucket 0 holds
// everything under 1 µs), so 40 buckets cover up to ~150 hours.
const latBuckets = 40

// LatencyHist is a log2-bucketed latency histogram with percentile
// estimation. The zero value is ready to use.
type LatencyHist struct {
	mu      sync.Mutex
	buckets [latBuckets]int64
	count   int64
	sum     time.Duration
	max     time.Duration
}

// Observe records one latency sample.
func (h *LatencyHist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := bits.Len64(uint64(d / time.Microsecond))
	if i >= latBuckets {
		i = latBuckets - 1
	}
	h.mu.Lock()
	h.buckets[i]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// Snapshot returns the count, mean, max and the standard reporting
// percentiles. Percentiles are estimated by linear interpolation
// within the matching log2 bucket (at most 2x resolution error).
func (h *LatencyHist) Snapshot() LatencySnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := LatencySnapshot{Count: h.count, Max: h.max}
	if h.count == 0 {
		return s
	}
	s.Mean = h.sum / time.Duration(h.count)
	s.P50 = h.percentileLocked(0.50)
	s.P95 = h.percentileLocked(0.95)
	s.P99 = h.percentileLocked(0.99)
	return s
}

func (h *LatencyHist) percentileLocked(p float64) time.Duration {
	rank := p * float64(h.count)
	var cum float64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / float64(n)
			d := lo + time.Duration(frac*float64(hi-lo))
			if d > h.max {
				d = h.max
			}
			return d
		}
		cum = next
	}
	return h.max
}

// bucketBounds reports the [lo, hi) time range of log2 bucket i.
func bucketBounds(i int) (lo, hi time.Duration) {
	if i == 0 {
		return 0, time.Microsecond
	}
	return time.Microsecond << (i - 1), time.Microsecond << i
}

// cumulative returns the histogram in Prometheus terms: per log2
// bucket i the count of observations below 1µs<<i (its exclusive
// limit, which cumulative ≤ semantics make an inclusive bound one
// observable unit below), plus the total count and sum. The catch-all
// last bucket is left out: it is the +Inf bucket, equal to the count.
func (h *LatencyHist) cumulative() (buckets [latBuckets - 1]int64, count int64, sum time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum int64
	for i := range buckets {
		cum += h.buckets[i]
		buckets[i] = cum
	}
	return buckets, h.count, h.sum
}

// LatencySnapshot is an immutable summary of a LatencyHist.
type LatencySnapshot struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}
