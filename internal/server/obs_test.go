package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvmap"
	"repro/internal/obs"
	"repro/internal/trace"
)

// statsDoc mirrors the STATS JSON layout the tests inspect.
type statsDoc struct {
	Server  map[string]json.RawMessage `json:"server"`
	Latency map[string]CmdLatency      `json:"latency"`
}

func fetchStats(t *testing.T, c *Client) statsDoc {
	t.Helper()
	body, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var doc statsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("STATS body: %v\n%s", err, body)
	}
	return doc
}

// The latency block appears in STATS, fed by the per-(command, executor)
// histograms the request spans record into.
func TestStatsLatencyBlock(t *testing.T) {
	_, addr := newTestServer(t, 2, Config{})
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := uint64(0); i < 32; i++ {
		put, _ := c.Put(i, i)
		if err := put.Wait(); err != nil {
			t.Fatal(err)
		}
		get, _ := c.Get(i)
		if err := get.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	doc := fetchStats(t, c)
	for _, op := range []string{"get", "put", "del", "cas"} {
		if _, ok := doc.Latency[op]; !ok {
			t.Fatalf("latency block missing %q: %v", op, doc.Latency)
		}
	}
	if doc.Latency["get"].Count != 32 || doc.Latency["put"].Count != 32 {
		t.Fatalf("latency counts get=%d put=%d, want 32/32", doc.Latency["get"].Count, doc.Latency["put"].Count)
	}
	if doc.Latency["del"].Count != 0 {
		t.Fatalf("no DELs were issued, count=%d", doc.Latency["del"].Count)
	}
	if doc.Latency["get"].P99Ns == 0 || doc.Latency["get"].MaxNs == 0 {
		t.Fatalf("get quantiles empty: %+v", doc.Latency["get"])
	}
	for _, k := range []string{"bad_requests", "slow_requests"} {
		if _, ok := doc.Server[k]; !ok {
			t.Fatalf("server snapshot missing %q", k)
		}
	}
}

// INFO's Stats section is generated from the Snapshot struct's JSON
// fields and its Latency section from CmdLatency — every scalar field
// of both must appear, so the RESP surface cannot drift from STATS.
func TestInfoStatsParity(t *testing.T) {
	s, addr := newRESPTestServer(t, 4, 2, Config{})
	c, err := DialRESP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v, _ := c.Do("SET", "k", "v"); string(v.Str) != "OK" {
		t.Fatalf("SET = %+v", v)
	}

	v, err := c.Do("INFO")
	if err != nil {
		t.Fatal(err)
	}
	info := string(v.Str)

	raw, err := json.Marshal(s.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	scalars := 0
	for k, rv := range m {
		if len(rv) > 0 && (rv[0] == '[' || rv[0] == '{') {
			continue
		}
		scalars++
		if !strings.Contains(info, "\r\n"+k+":") && !strings.Contains(info, "\n"+k+":") {
			t.Errorf("INFO missing Snapshot field %q", k)
		}
	}
	if scalars < 10 {
		t.Fatalf("only %d scalar Snapshot fields — parity test lost its teeth", scalars)
	}
	raw, _ = json.Marshal(CmdLatency{})
	var lm map[string]json.RawMessage
	_ = json.Unmarshal(raw, &lm)
	for _, op := range []string{"get", "put", "del", "cas"} {
		for k := range lm {
			if !strings.Contains(info, "latency_"+op+"_"+k+":") {
				t.Errorf("INFO missing latency field latency_%s_%s", op, k)
			}
		}
	}

	// Section filter: INFO latency returns only the latency section.
	v, err = c.Do("INFO", "latency")
	if err != nil {
		t.Fatal(err)
	}
	sec := string(v.Str)
	if !strings.Contains(sec, "# Latency") || !strings.Contains(sec, "latency_get_count:") {
		t.Fatalf("INFO latency = %q", sec)
	}
	if strings.Contains(sec, "# Stats") || strings.Contains(sec, "# Server") {
		t.Fatalf("INFO latency leaked other sections: %q", sec)
	}
}

// With a 1ns threshold every data request is "slow": the ring fills,
// entries decode with op/status/shard/stage attribution, and the HTTP
// route serves them through the obs registry handler alongside the
// latency histogram families on /metrics.
func TestSlowLogAndMetricsRoutes(t *testing.T) {
	s, addr := newTestServer(t, 2, Config{SlowThreshold: time.Nanosecond, SlowLogSize: 32})
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := uint64(0); i < 16; i++ {
		put, _ := c.Put(i, i)
		if err := put.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	entries := s.SlowLog()
	if len(entries) == 0 {
		t.Fatal("slow log empty under a 1ns threshold")
	}
	e := entries[0]
	if e.Op != "put" && e.Op != "get" {
		t.Fatalf("entry op %q", e.Op)
	}
	if e.Status != "ok" && e.Status != "not_found" {
		t.Fatalf("entry status %q", e.Status)
	}
	if e.ServerNs <= 0 || e.UnixNano == 0 {
		t.Fatalf("entry timing: %+v", e)
	}
	var stageSum int64
	for _, d := range e.Stages {
		stageSum += d
	}
	if stageSum < e.ServerNs {
		t.Fatalf("stages (%d ns incl. read) sum below server_ns %d", stageSum, e.ServerNs)
	}

	reg := obs.NewRegistry()
	s.RegisterObs(reg)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ThresholdNs int64       `json:"threshold_ns"`
		Total       uint64      `json:"total"`
		Entries     []SlowEntry `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.ThresholdNs != 1 || doc.Total == 0 || len(doc.Entries) == 0 {
		t.Fatalf("/debug/slowlog = %+v", doc)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`oa_server_latency_get_seconds_bucket{executor="0",le="+Inf"}`,
		`oa_server_latency_put_seconds_count{executor="0"}`,
		"oa_server_slow_requests_total",
		"oa_server_bad_requests_total",
	} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// The RESP listener feeds the same histograms and slow log, including
// variadic commands (one sample per command, from the key that came in
// last).
func TestRESPLatencyAndSlowLog(t *testing.T) {
	s, addr := newRESPTestServer(t, 4, 2, Config{SlowThreshold: time.Nanosecond})
	c, err := DialRESP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v, _ := c.Do("SET", "a", "1"); string(v.Str) != "OK" {
		t.Fatalf("SET = %+v", v)
	}
	if v, _ := c.Do("GET", "a"); string(v.Str) != "1" {
		t.Fatalf("GET = %+v", v)
	}
	if v, _ := c.Do("DEL", "a", "b", "c"); v.Type != ':' {
		t.Fatalf("DEL = %+v", v)
	}
	lat := s.latencySnapshot()
	if lat["put"].Count != 1 || lat["get"].Count != 1 || lat["del"].Count != 1 {
		t.Fatalf("latency counts %+v", lat)
	}
	if len(s.SlowLog()) == 0 {
		t.Fatal("RESP requests did not reach the slow log")
	}
}

// With tracing on and SpanSample=1, every data request emits req_stage/
// req_span events into the routed shard's session ring — on the same
// timeline as the reclamation events.
func TestSpanTraceEmission(t *testing.T) {
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	s, addr := newTestServer(t, 2, Config{SpanSample: 1})
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := uint64(0); i < 8; i++ {
		put, _ := c.Put(i, i)
		if err := put.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	var spans, stages int
	for _, ev := range s.shards.Shard(0).Manager().TraceRecorder().Events() {
		switch ev.Kind {
		case trace.EvReqSpan:
			spans++
			if op := trace.SpanOp(ev.Arg); op != OpPut {
				t.Fatalf("span op %d, want put", op)
			}
			if trace.SpanStatus(ev.Arg) > StCASMismatch {
				t.Fatalf("span status %d", trace.SpanStatus(ev.Arg))
			}
		case trace.EvReqStage:
			stages++
		}
	}
	if spans != 8 {
		t.Fatalf("got %d req_span events, want 8 (SpanSample=1)", spans)
	}
	if stages < spans {
		t.Fatalf("%d stage events for %d spans", stages, spans)
	}
}

// Sampling: with SpanSample=4, 8 requests emit exactly 2 spans.
func TestSpanSampling(t *testing.T) {
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	s, addr := newTestServer(t, 2, Config{SpanSample: 4})
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := uint64(0); i < 8; i++ {
		put, _ := c.Put(1, i)
		if err := put.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	var spans int
	for _, ev := range s.shards.Shard(0).Manager().TraceRecorder().Events() {
		if ev.Kind == trace.EvReqSpan {
			spans++
		}
	}
	if spans != 2 {
		t.Fatalf("got %d req_span events from 8 requests at 1-in-4, want 2", spans)
	}
}

// The instrumentation on the request path — the histogram record, the
// slow-log record, and the (sampled) trace emission an executor runs for
// every reply it publishes — must add zero heap allocations, sampled or
// not. (The reply itself is encoded into the request's outbox slot,
// exercised by TestServed*PathDoesNotAllocate.)
func TestInstrumentationDoesNotAllocate(t *testing.T) {
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	shards := kvmap.NewSharded(core.Config{MaxThreads: 2, Capacity: 1 << 12}, 1<<10, 1)
	defer shards.Close()

	// The idle executor's own observe, driven from here: the same call, on
	// the same session ring, process makes per request.
	run := func(s *Server) func() {
		e := s.execs[0]
		stages := [trace.NumStages]int64{trace.StageRead: 5, trace.StageRoute: 4, trace.StageQueue: 3, trace.StageExec: 2}
		return func() { e.observe(&e.shards[0], 1, OpGet, StOK, &stages, 0, 0) }
	}
	t.Run("Unsampled", func(t *testing.T) {
		// A huge sample period plus a high threshold: the common case,
		// where a request pays only one histogram record.
		s := New(Config{Shards: shards, SlowThreshold: time.Hour, SpanSample: 1 << 30})
		defer s.Shutdown()
		if avg := testing.AllocsPerRun(2000, run(s)); avg > 0.05 {
			t.Fatalf("unsampled instrumented path allocates %.2f objects/request", avg)
		}
	})
	t.Run("SampledAndSlow", func(t *testing.T) {
		// Every request emits a span AND lands in the slow log — the
		// maximally instrumented path.
		s := New(Config{Shards: shards, SlowThreshold: time.Nanosecond, SpanSample: 1})
		defer s.Shutdown()
		if avg := testing.AllocsPerRun(2000, run(s)); avg > 0.05 {
			t.Fatalf("sampled+slow instrumented path allocates %.2f objects/request", avg)
		}
		if s.slowlog.total() == 0 {
			t.Fatal("slow log never recorded — the proof proved nothing")
		}
	})
}

// Concurrent histogram records, slow-log writers and snapshot readers —
// run under -race, this is the proof the new observability surfaces
// need no locks.
func TestLatencyConcurrentRecordSnapshot(t *testing.T) {
	shards := kvmap.NewSharded(core.Config{MaxThreads: 4, Capacity: 1 << 12}, 1<<10, 2)
	defer shards.Close()
	s := New(Config{Shards: shards, SlowThreshold: time.Nanosecond, SlowLogSize: 16})
	defer s.Shutdown()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var stages [trace.NumStages]int64
			stages[trace.StageExec] = 5
			for i := uint64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.execs[int(i)%len(s.execs)].lat[OpGet].ObserveNs(i)
				s.slowlog.record(int64(i), uint64(w), OpGet, StOK, 0, 5, stages, 1, 0)
			}
		}(w)
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		_ = s.latencySnapshot()
		for _, e := range s.slowlog.snapshot() {
			if e.Op != "get" || e.ServerNs != 5 {
				t.Errorf("torn slow entry escaped the seqlock: %+v", e)
			}
		}
		_ = s.statsBody()
	}
	close(stop)
	wg.Wait()
}

// SetHealth's document must surface on both listeners: the STATS JSON
// carries it under "health" and RESP `INFO health` flattens its scalar
// fields as health_* lines (absent entirely when no recorder attached).
func TestHealthSurfaces(t *testing.T) {
	type fakeHealth struct {
		State       string `json:"state"`
		Transitions uint64 `json:"transitions"`
		Firing      string `json:"firing"`
	}
	doc := fakeHealth{State: "degraded", Transitions: 3, Firing: "ring_saturation"}

	s, addr := newRESPTestServer(t, 4, 2, Config{})
	if !strings.Contains(string(s.statsBody()), `"health"`) {
		// no supplier yet → omitted
	} else {
		t.Fatalf("health block present before SetHealth: %s", s.statsBody())
	}
	s.SetHealth(func() any { return doc })

	var parsed struct {
		Health fakeHealth `json:"health"`
	}
	if err := json.Unmarshal(s.statsBody(), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Health != doc {
		t.Fatalf("STATS health block = %+v, want %+v", parsed.Health, doc)
	}

	c, err := DialRESP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, err := c.Do("INFO", "health")
	if err != nil {
		t.Fatal(err)
	}
	info := string(v.Str)
	for _, want := range []string{"# Health", `health_state:"degraded"`, "health_transitions:3", `health_firing:"ring_saturation"`} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO health missing %q:\n%s", want, info)
		}
	}
	if strings.Contains(info, "# Stats") {
		t.Fatalf("INFO health leaked other sections:\n%s", info)
	}
}
