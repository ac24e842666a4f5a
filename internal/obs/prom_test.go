package obs

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildTestRegistry assembles a registry with one of each source kind and
// fully deterministic values.
func buildTestRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("demo_events_total", "events processed", func() uint64 { return 42 })
	reg.Gauge("demo_backlog_slots", "retired but unreclaimed", func() float64 { return 7.5 })
	ts := NewThreadStats(2)
	for c := Counter(0); c < NumCounters; c++ {
		ts.At(0).Add(c, uint64(c)+1)
		ts.At(1).Add(c, 100*(uint64(c)+1))
	}
	reg.ThreadCounters("demo", ts, goldenCounters...)
	return reg
}

// goldenCounters are the per-thread counters the test registry exports:
// a subset, out of enum order, so the golden output pins that only the
// named counters render, in the order given.
var goldenCounters = []Counter{Restarts, Ops, HPPublishes}

// The non-histogram output is compared byte-for-byte: the exposition
// format is a wire contract, so a formatting regression must fail loudly.
func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := buildTestRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	want.WriteString(`# HELP demo_events_total events processed
# TYPE demo_events_total counter
demo_events_total 42
# HELP demo_backlog_slots retired but unreclaimed
# TYPE demo_backlog_slots gauge
demo_backlog_slots 7.5
`)
	for _, c := range goldenCounters {
		name := "demo_" + c.String() + "_total"
		want.WriteString("# HELP " + name + " per-thread " + c.String() + " counter\n")
		want.WriteString("# TYPE " + name + " counter\n")
		want.WriteString(name + `{thread="0"} ` + strconv.FormatUint(uint64(c)+1, 10) + "\n")
		want.WriteString(name + `{thread="1"} ` + strconv.FormatUint(100*(uint64(c)+1), 10) + "\n")
	}
	if b.String() != want.String() {
		t.Fatalf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want.String())
	}
}

var sampleRe = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+]?([0-9.eE+-]+|Inf|NaN)$`)

// Histograms are validated structurally: every line parses, buckets are
// cumulative and monotonic, +Inf equals _count, and _sum is in seconds.
func TestWritePrometheusHistogram(t *testing.T) {
	reg := NewRegistry()
	var h Histogram
	h.Observe(100 * time.Nanosecond)
	h.Observe(5 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	reg.Histogram("demo_pause_seconds", "pause durations", &h)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var prev uint64
	var bucketLines, infCount int
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleRe.MatchString(line) {
			t.Fatalf("bad sample line %q", line)
		}
		val, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		switch {
		case strings.Contains(line, `le="+Inf"`):
			infCount++
			if err != nil || val != 3 {
				t.Fatalf("+Inf bucket = %q, want 3", line)
			}
		case strings.HasPrefix(line, "demo_pause_seconds_bucket"):
			bucketLines++
			if err != nil || val < prev {
				t.Fatalf("non-cumulative bucket line %q after %d", line, prev)
			}
			prev = val
		case strings.HasPrefix(line, "demo_pause_seconds_count"):
			if err != nil || val != 3 {
				t.Fatalf("_count = %q, want 3", line)
			}
		case strings.HasPrefix(line, "demo_pause_seconds_sum"):
			f, ferr := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if ferr != nil || f < 0.003 || f > 0.0031 {
				t.Fatalf("_sum = %q, want ≈ 0.003005 seconds", line)
			}
		}
	}
	if bucketLines != Buckets-1 || infCount != 1 {
		t.Fatalf("got %d finite buckets + %d inf, want %d + 1", bucketLines, infCount, Buckets-1)
	}
}

func TestHandlerRoutes(t *testing.T) {
	srv := httptest.NewServer(buildTestRegistry().Handler())
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, rerr := resp.Body.Read(buf)
			b.Write(buf[:n])
			if rerr != nil {
				break
			}
		}
		return resp, b.String()
	}

	resp, body := get("/metrics")
	if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("/metrics: status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(body, "demo_events_total 42") {
		t.Fatalf("/metrics body missing counter:\n%s", body)
	}

	if !strings.Contains(body, `demo_ops_total{thread="1"} 100`) {
		t.Fatalf("/metrics body missing the per-thread counter:\n%s", body)
	}

	if resp, _ := get("/debug/pprof/cmdline"); resp.StatusCode != 200 {
		t.Fatalf("/debug/pprof/cmdline: status %d", resp.StatusCode)
	}
	if resp, _ := get("/nope"); resp.StatusCode != 404 {
		t.Fatalf("/nope: status %d", resp.StatusCode)
	}
}

func TestHandlerNilRegistry(t *testing.T) {
	srv := httptest.NewServer(HandlerFor(func() *Registry { return nil }))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("nil registry: status %d, want 503", resp.StatusCode)
	}
}

// HistogramVec families render one bucket/sum/count series per label
// value under a single HELP/TYPE header, every line a valid sample.
func TestWritePrometheusHistogramVec(t *testing.T) {
	reg := NewRegistry()
	var hs [2]Histogram
	hs[0].Observe(100 * time.Nanosecond)
	hs[0].Observe(3 * time.Millisecond)
	hs[1].Observe(5 * time.Microsecond)
	reg.HistogramVec("demo_latency_seconds", "request latency", "shard", 2,
		func(i int) *Histogram { return &hs[i] })

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if n := strings.Count(out, "# TYPE demo_latency_seconds histogram"); n != 1 {
		t.Fatalf("want exactly one TYPE header, got %d:\n%s", n, out)
	}
	for _, want := range []string{
		`demo_latency_seconds_bucket{shard="0",le="+Inf"} 2`,
		`demo_latency_seconds_bucket{shard="1",le="+Inf"} 1`,
		`demo_latency_seconds_count{shard="0"} 2`,
		`demo_latency_seconds_count{shard="1"} 1`,
		`demo_latency_seconds_sum{shard="0"} `,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleRe.MatchString(line) {
			t.Fatalf("bad sample line %q", line)
		}
	}
}

// Registered routes are served by the registry handler before the 404
// fallback and advertised on the index page.
func TestHandlerExtraRoutes(t *testing.T) {
	reg := buildTestRegistry()
	reg.Handle("/debug/slowlog", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"entries":[]}`))
	}))
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 256)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body[:n]), "entries") {
		t.Fatalf("/debug/slowlog: status %d body %q", resp.StatusCode, body[:n])
	}
	if got := reg.Routes(); len(got) != 1 || got[0] != "/debug/slowlog" {
		t.Fatalf("Routes() = %v", got)
	}
	resp, err = http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	n, _ = resp.Body.Read(body)
	resp.Body.Close()
	if !strings.Contains(string(body[:n]), "/debug/slowlog") {
		t.Fatalf("index page does not advertise the extra route: %q", body[:n])
	}
	if resp, err := http.Get(srv.URL + "/nope"); err != nil || resp.StatusCode != 404 {
		t.Fatalf("unregistered path must stay 404")
	}
}
