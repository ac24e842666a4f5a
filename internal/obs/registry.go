package obs

import (
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// GaugeFunc samples one gauge value.
type GaugeFunc func() float64

// CounterFunc samples one cumulative counter value.
type CounterFunc func() uint64

type gaugeEntry struct {
	name, help string
	fn         GaugeFunc
}

type counterEntry struct {
	name, help string
	fn         CounterFunc
}

type threadEntry struct {
	prefix string
	ts     *ThreadStats
	cs     []Counter
}

type histEntry struct {
	name, help string
	h          *Histogram
}

type vecGaugeEntry struct {
	name, help, label string
	n                 int
	fn                func(i int) float64
}

type vecCounterEntry struct {
	name, help, label string
	n                 int
	fn                func(i int) uint64
}

type vecHistEntry struct {
	name, help, label string
	n                 int
	fn                func(i int) *Histogram
}

// Registry collects metric sources and renders them as Prometheus text.
// Registration happens at setup time; scrapes may run concurrently
// with the writers feeding the sources (sources are sampled, not locked).
type Registry struct {
	mu          sync.Mutex
	gauges      []gaugeEntry
	counters    []counterEntry
	vecGauges   []vecGaugeEntry
	vecCounters []vecCounterEntry
	vecHists    []vecHistEntry
	threads     []threadEntry
	hists       []histEntry
	routes      map[string]http.Handler

	// tracers holds the registered protocol event recorders behind an
	// atomic pointer (copy-on-write under mu) so the trace_events_total
	// counter can sample them from inside a locked scrape without
	// re-entering the mutex.
	tracers atomic.Pointer[[]*trace.Recorder]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Gauge registers a sampled gauge. name must be a valid Prometheus metric
// name (snake_case).
func (r *Registry) Gauge(name, help string, fn GaugeFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges = append(r.gauges, gaugeEntry{name, help, fn})
}

// Counter registers a sampled cumulative counter. By Prometheus convention
// name should end in _total.
func (r *Registry) Counter(name, help string, fn CounterFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = append(r.counters, counterEntry{name, help, fn})
}

// GaugeVec registers a family of n gauges sharing one name and help text,
// distinguished by a label (e.g. shard): sample i exports as
// name{label="i"} under a single HELP/TYPE header. Used for per-shard and
// per-executor gauges, where one metric each would drown the scrape output
// in headers.
func (r *Registry) GaugeVec(name, help, label string, n int, fn func(i int) float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.vecGauges = append(r.vecGauges, vecGaugeEntry{name, help, label, n, fn})
}

// CounterVec registers a family of n cumulative counters sharing one name,
// distinguished by a label; sample i exports as name{label="i"}.
func (r *Registry) CounterVec(name, help, label string, n int, fn func(i int) uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.vecCounters = append(r.vecCounters, vecCounterEntry{name, help, label, n, fn})
}

// HistogramVec registers a family of n histograms sharing one name and
// help text, distinguished by a label: sample i exports in Prometheus
// histogram format as name_bucket{label="i",le="..."} (plus the matching
// _sum and _count series).
// Used for the server's per-(command, shard) latency families, where a
// metric per shard would drown the scrape output in headers.
func (r *Registry) HistogramVec(name, help, label string, n int, fn func(i int) *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.vecHists = append(r.vecHists, vecHistEntry{name, help, label, n, fn})
}

// Handle registers an extra HTTP route served by this registry's
// handler (HandlerFor falls back to registered routes before 404). The
// hook lets subsystems attach their own debug endpoints — the server's
// /debug/slowlog — to the one observability listener without the
// listener owner knowing about them.
func (r *Registry) Handle(path string, h http.Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.routes == nil {
		r.routes = make(map[string]http.Handler)
	}
	r.routes[path] = h
}

// route returns the handler registered for path, or nil.
func (r *Registry) route(path string) http.Handler {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.routes[path]
}

// Routes returns the registered extra route paths (sorted), so probes
// can discover and exercise every attached debug endpoint.
func (r *Registry) Routes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.routes))
	for p := range r.routes {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ThreadCounters registers the counters cs of a per-thread counter block
// set; each exports as <prefix>_<counter>_total{thread="i"}. A caller
// names only the counters it feeds, so no family is always zero.
func (r *Registry) ThreadCounters(prefix string, ts *ThreadStats, cs ...Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.threads = append(r.threads, threadEntry{prefix, ts, cs})
}

// Histogram registers a pause histogram; it exports in Prometheus
// histogram format with log₂ bucket edges converted to seconds.
func (r *Registry) Histogram(name, help string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists = append(r.hists, histEntry{name, help, h})
}

// Trace registers a protocol event recorder: its merged rings become the
// /trace endpoint's payload (TraceEvents, WriteTrace*), and the first
// registration adds a trace_events_total counter reporting how many
// events were ever recorded across all registered recorders (including
// ones the rings have since overwritten).
func (r *Registry) Trace(rec *trace.Recorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.tracers.Load()
	var recs []*trace.Recorder
	if old != nil {
		recs = append(recs, *old...)
	}
	recs = append(recs, rec)
	r.tracers.Store(&recs)
	if old == nil {
		r.counters = append(r.counters, counterEntry{
			"trace_events_total",
			"protocol events recorded by the trace rings (including overwritten)",
			r.TraceTotal,
		})
	}
}

func (r *Registry) traceRecs() []*trace.Recorder {
	if p := r.tracers.Load(); p != nil {
		return *p
	}
	return nil
}

// TraceTotal returns how many protocol events were ever recorded across
// the registered recorders. Lock-free, so it is safe both as a counter
// source inside a scrape and from signal handlers.
func (r *Registry) TraceTotal() uint64 {
	var n uint64
	for _, rec := range r.traceRecs() {
		n += rec.Total()
	}
	return n
}

// TraceEvents snapshots every registered recorder and returns the merged
// timeline. When more than one recorder is registered (several managers
// feeding one registry), thread ids are offset per recorder so each
// (recorder, thread) pair keeps a distinct track.
func (r *Registry) TraceEvents() []trace.Event {
	recs := r.traceRecs()
	var out []trace.Event
	base := int32(0)
	for _, rec := range recs {
		evs := rec.Events()
		if base != 0 {
			for i := range evs {
				evs[i].TID += base
			}
		}
		out = append(out, evs...)
		base += int32(rec.Threads())
	}
	if len(recs) > 1 {
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.TS != b.TS {
				return a.TS < b.TS
			}
			if a.TID != b.TID {
				return a.TID < b.TID
			}
			return a.Seq < b.Seq
		})
	}
	return out
}

// WriteTraceChrome writes the merged trace in Chrome trace_event format
// (chrome://tracing, Perfetto).
func (r *Registry) WriteTraceChrome(w io.Writer) error {
	return trace.WriteChrome(w, r.TraceEvents())
}
