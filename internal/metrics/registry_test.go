package metrics

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: registration accepted", what)
		}
	}()
	fn()
}

// A family's kind and label names are fixed by its first registration.
func TestRegistryRejectsConflictingFamily(t *testing.T) {
	r := NewRegistry()
	one := func() int64 { return 1 }
	r.Counter("x_total", "help", one, "shard", "0")
	r.Counter("x_total", "help", one, "shard", "1") // another series: fine
	mustPanic(t, "gauge after counter", func() { r.Gauge("x_total", "help", one, "shard", "2") })
	mustPanic(t, "other label name", func() { r.Counter("x_total", "help", one, "db", "a") })
	mustPanic(t, "extra label", func() { r.Counter("x_total", "help", one, "shard", "2", "db", "a") })
	mustPanic(t, "odd label list", func() { r.Counter("y_total", "help", one, "shard") })
}

// Families render in registration order, series in label order, and
// the series read live state at every scrape, after the collectors.
func TestRegistryOrderAndLiveness(t *testing.T) {
	r := NewRegistry()
	var sampled, v int64
	r.OnScrape(func() { sampled = v })
	r.Gauge("b_gauge", "Second letter, first registered.", func() int64 { return sampled }, "shard", "1")
	r.Counter("a_total", "First letter, second registered.", func() int64 { return 7 })
	r.Gauge("b_gauge", "Second letter, first registered.", func() int64 { return -sampled }, "shard", "0")

	v = 3
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP b_gauge Second letter, first registered.
# TYPE b_gauge gauge
b_gauge{shard="0"} -3
b_gauge{shard="1"} 3
# HELP a_total First letter, second registered.
# TYPE a_total counter
a_total 7
`
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}

	v = 5
	snap := scrape(t, r)
	if len(snap) != 3 || snap[0].name != "b_gauge" || snap[2].name != "a_total" {
		t.Fatalf("scrape order: %+v", snap)
	}
	if s := snap[1]; s.labels != `shard="1"` || s.value != 5 {
		t.Errorf("b_gauge{shard=1} = %+v; want the collector's fresh sample 5", s)
	}
	if snap[2].labels != "" {
		t.Errorf("unlabelled series carries labels %v", snap[2].labels)
	}

	// The same label values again replace the series.
	r.Counter("a_total", "First letter, second registered.", func() int64 { return 8 })
	if snap := scrape(t, r); len(snap) != 3 || snap[2].value != 8 {
		t.Errorf("after re-registration: %+v, want a_total = 8 in place", snap)
	}
}

// sample is one line of an exposition: a series' name, its labels as
// rendered, and its value.
type sample struct {
	name, labels string
	value        float64
}

// scrape renders r and parses its sample lines, in exposition order.
func scrape(t *testing.T, r *Registry) []sample {
	t.Helper()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var out []sample
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		at := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[at+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		name, labels, _ := strings.Cut(line[:at], "{")
		out = append(out, sample{name, strings.TrimSuffix(labels, "}"), v})
	}
	return out
}

// A histogram series is cumulative, ends in +Inf equal to _count, trims
// the buckets above histMaxBucket, and escapes its label values.
func TestRegistryHistogram(t *testing.T) {
	var h LatencyHist
	samples := []time.Duration{
		500 * time.Nanosecond, // bucket 0 (< 1µs)
		3 * time.Microsecond,
		3 * time.Microsecond,
		900 * time.Microsecond,
		20 * time.Second, // beyond the trim bound: +Inf only
	}
	var sum time.Duration
	for _, d := range samples {
		h.Observe(d)
		sum += d
	}
	r := NewRegistry()
	r.Histogram("lat_seconds", "help", &h, "db", "a\"b\\c\nd")
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	const labels = `db="a\"b\\c\nd"`
	for _, want := range []string{
		"# TYPE lat_seconds histogram\n",
		"lat_seconds_bucket{" + labels + `,le="1e-06"} 1` + "\n",
		"lat_seconds_bucket{" + labels + `,le="4e-06"} 3` + "\n",
		"lat_seconds_bucket{" + labels + `,le="0.001024"} 4` + "\n",
		"lat_seconds_bucket{" + labels + `,le="8.388608"} 4` + "\n",
		"lat_seconds_bucket{" + labels + `,le="+Inf"} 5` + "\n",
		"lat_seconds_count{" + labels + "} 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `le="16.777216"`) {
		t.Errorf("bucket above the %v trim bound survived:\n%s", histMaxBucket, out)
	}
	var count, total *sample
	for _, sm := range scrape(t, r) {
		switch sm.name {
		case "lat_seconds_count":
			count = &sm
		case "lat_seconds_sum":
			total = &sm
		}
	}
	if count == nil || count.value != 5 || total == nil || total.value != sum.Seconds() || total.labels != labels {
		t.Errorf("_count %+v, _sum %+v, want _count 5 and _sum %v under %s", count, total, sum.Seconds(), labels)
	}
}
