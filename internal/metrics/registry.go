package metrics

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"
)

// Kind is a metric family's Prometheus type.
type Kind uint8

const (
	Counter Kind = iota
	Gauge
	Histogram
)

func (k Kind) String() string { return [...]string{"counter", "gauge", "histogram"}[k] }

// Registry is the one metrics plane: typed families with real labels
// whose series are closures over counters the layers already keep, so
// registering costs nothing on any command path and a scrape reads
// live state. Its one output is WritePrometheus.
type Registry struct {
	mu         sync.Mutex // families and collectors
	families   []*family  // registration order
	collectors []func()

	// scrape admits one scrape at a time: collectors refresh samples
	// that the series of the same scrape then read.
	scrape sync.Mutex
}

type family struct {
	name, help string
	kind       Kind
	keys       []string // label names
	series     []series // ascending by rendered labels
}

type series struct {
	labels string       // rendered `k="v",...`; the sort key
	value  func() int64 // counter and gauge
	hist   *LatencyHist // histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter adds one series to a counter family, creating the family on
// first use; kv lists the series' label names and values alternately.
// Registering a name again with another kind or other label names is a
// programming error and panics; the same label values again replace
// the series (a session manager rebuilt after a power cut takes over
// its predecessor's).
func (r *Registry) Counter(name, help string, fn func() int64, kv ...string) {
	r.add(Counter, name, help, series{value: fn}, kv)
}

// Gauge adds one series to a gauge family; see Counter.
func (r *Registry) Gauge(name, help string, fn func() int64, kv ...string) {
	r.add(Gauge, name, help, series{value: fn}, kv)
}

// Histogram adds one latency histogram, rendered in seconds, to a
// histogram family; see Counter.
func (r *Registry) Histogram(name, help string, h *LatencyHist, kv ...string) {
	r.add(Histogram, name, help, series{hist: h}, kv)
}

// OnScrape registers a collector run at the start of every scrape,
// before any series is read. A layer whose state is guarded by a lock
// samples it there once, and registers series that read the sample.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func (r *Registry) add(kind Kind, name, help string, s series, kv []string) {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("metrics: %s: odd label list %q", name, kv))
	}
	var keys, parts []string
	for i := 0; i < len(kv); i += 2 {
		keys = append(keys, kv[i])
		parts = append(parts, kv[i]+`="`+labelEscaper.Replace(kv[i+1])+`"`)
	}
	s.labels = strings.Join(parts, ",")

	r.mu.Lock()
	defer r.mu.Unlock()
	i := slices.IndexFunc(r.families, func(f *family) bool { return f.name == name })
	if i < 0 {
		i = len(r.families)
		r.families = append(r.families, &family{name: name, help: help, kind: kind, keys: keys})
	}
	f := r.families[i]
	if f.kind != kind || !slices.Equal(f.keys, keys) {
		panic(fmt.Sprintf("metrics: %s registered as %v%v, then as %v%v", name, f.kind, f.keys, kind, keys))
	}
	at, found := slices.BinarySearchFunc(f.series, s.labels, func(e series, l string) int { return strings.Compare(e.labels, l) })
	if found {
		f.series[at] = s
	} else {
		f.series = slices.Insert(f.series, at, s)
	}
}

// histMaxBucket trims histogram buckets above it from the exposition:
// the +Inf bucket still catches outliers, and 20+ empty multi-hour
// buckets per series carry no information.
const histMaxBucket = 16 * time.Second

// WritePrometheus renders every family in Prometheus text format
// 0.0.4: HELP and TYPE once per family, then its series in label
// order; a histogram series is its cumulative le buckets (the last is
// +Inf and equals _count), _sum and _count. It returns w's error.
func (r *Registry) WritePrometheus(w io.Writer) error {
	_, err := w.Write(r.render())
	return err
}

// render runs one scrape: the collectors, then every family in
// registration order. No registry lock is held while collectors and
// series run, so they may take their layers' locks freely.
func (r *Registry) render() []byte {
	r.scrape.Lock()
	defer r.scrape.Unlock()
	r.mu.Lock()
	collectors := slices.Clone(r.collectors)
	families := make([]family, len(r.families))
	for i, f := range r.families {
		families[i] = *f
		families[i].series = slices.Clone(f.series)
	}
	r.mu.Unlock()
	for _, collect := range collectors {
		collect()
	}
	var b bytes.Buffer
	for _, f := range families {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, s := range f.series {
			braced, le := "", ""
			if s.labels != "" {
				braced, le = "{"+s.labels+"}", s.labels+","
			}
			if f.kind != Histogram {
				fmt.Fprintf(&b, "%s%s %d\n", f.name, braced, s.value())
				continue
			}
			buckets, count, sum := s.hist.cumulative()
			for i, n := range buckets {
				if upper := time.Microsecond << i; upper <= histMaxBucket {
					fmt.Fprintf(&b, "%s_bucket{%sle=\"%g\"} %d\n", f.name, le, upper.Seconds(), n)
				}
			}
			fmt.Fprintf(&b, "%s_bucket{%sle=\"+Inf\"} %d\n", f.name, le, count)
			fmt.Fprintf(&b, "%s_sum%s %g\n%s_count%s %d\n", f.name, braced, sum.Seconds(), f.name, braced, count)
		}
	}
	return b.Bytes()
}
