package e2e

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"

	"repro/internal/server"
)

// wantMetrics are the families README/DESIGN promise on each command's
// /metrics that no in-process test asserts by name (trace_events_total,
// oa_server_slow_requests_total and the get/put latency families are
// asserted in internal/obs and internal/server).
var wantMetrics = map[string][]string{
	"oastress": {
		"oa_smr_restarts_total", "oa_smr_drain_passes_total", "oa_retired_backlog_slots",
		"oa_phase_pause_seconds_bucket", "oa_pool_shards", "oa_pool_steals_total",
		"oa_ready_shard_blocks", "smr_unreclaimed_slots", "stress_ops_total",
		"stress_contains_latency_seconds_bucket", "stress_insert_latency_seconds_bucket",
		"stress_delete_latency_seconds_bucket",
	},
	"oaserver": {
		"oa_server_requests_total", "oa_server_requests_read_total", "oa_server_responses_sent_total",
		"oa_server_ring_depth", "oa_server_ring_cap", "oa_server_ring_full_total",
		"oa_server_exec_batches_total", "oa_server_exec_batched_ops_total",
		"oa_server_latency_del_seconds_bucket", "oa_server_latency_cas_seconds_bucket",
		"oa_health_state", "oa_health_transitions_total", "flight_ticks_total",
	},
}

// sampleLine matches one Prometheus text-format sample.
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? [-+]?([0-9.eE+-]+|Inf|NaN)$`)

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d (%v)", url, resp.StatusCode, err)
	}
	return body
}

// checkMetrics holds every line of a real process's /metrics to the
// sample grammar and requires cmd's promised families.
func checkMetrics(t *testing.T, cmd, base string) {
	t.Helper()
	seen := map[string]bool{}
	for i, line := range strings.Split(string(get(t, base+"/metrics")), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("%s /metrics line %d is not a valid sample: %q", cmd, i+1, line)
		}
		seen[m[1]] = true
	}
	for _, want := range wantMetrics[cmd] {
		if !seen[want] {
			t.Errorf("%s /metrics has no %s", cmd, want)
		}
	}
}

// traceKinds holds data to the Chrome trace_event shape chrome://tracing
// and Perfetto load — well-formed instant events in timestamp order — and
// returns how many events of each kind it carries.
func traceKinds(t *testing.T, data []byte) map[string]int {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name, Ph, S string
			Pid, Tid    *int
			Ts          *float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("not a Chrome trace document: %v", err)
	}
	kinds := map[string]int{}
	last := -1.0
	for i, e := range doc.TraceEvents {
		if e.Name == "" || e.Ph != "i" || e.S != "t" || e.Pid == nil || e.Tid == nil || e.Ts == nil {
			t.Fatalf("trace event %d is not a well-formed instant event: %+v", i, e)
		}
		if *e.Ts < last {
			t.Fatalf("trace event %d breaks timestamp order: %v after %v", i, *e.Ts, last)
		}
		last = *e.Ts
		kinds[e.Name]++
	}
	return kinds
}

func hasKinds(kinds map[string]int, want ...string) bool {
	for _, k := range want {
		if kinds[k] == 0 {
			return false
		}
	}
	return true
}

// TestObservability scrapes the endpoints of the two commands that mount
// them and ends each with the signal contract of that command.
func TestObservability(t *testing.T) {
	skipShort(t)
	healthy := []string{"phase", "restart", "drain", "refill"} // what an OA soak's timeline carries

	// oastress: -http binds :0 and announces it, -snapshot reports, SIGINT
	// still verifies, dumps -trace and the final stats, and exits 130.
	t.Run("oastress", func(t *testing.T) {
		traceFile := filepath.Join(t.TempDir(), "trace.json")
		p := start(t, "oastress", "-structure", "Hash", "-scheme", "OA", "-threads", "4", "-keys", "256",
			"-duration", "2m", "-http", "127.0.0.1:0", "-snapshot", "100ms", "-trace", traceFile)
		base := "http://" + p.announced(t, "observability")
		// The first snapshot line also says the soak has published its
		// registry; until then the endpoint answers 503.
		eventually(t, "a snapshot line", func() bool { return strings.Contains(p.stdout.String(), "snap +") })
		checkMetrics(t, "oastress", base)
		var doc struct {
			Counters map[string]uint64 `json:"counters"`
		}
		if err := json.Unmarshal(get(t, base+"/stats.json"), &doc); err != nil {
			t.Fatalf("/stats.json: %v", err)
		}
		if _, ok := doc.Counters["oa_smr_restarts_total"]; !ok {
			t.Errorf("/stats.json counters %v lack oa_smr_restarts_total", doc.Counters)
		}
		eventually(t, "/trace to carry "+strings.Join(healthy, ", "), func() bool {
			return hasKinds(traceKinds(t, get(t, base+"/trace")), healthy...)
		})

		p.signal(t, syscall.SIGINT)
		if code := p.exit(t); code != 130 {
			t.Fatalf("exit status %d after SIGINT, want 130", code)
		}
		for _, want := range []string{"OK   Hash", "final stats", "wrote trace to"} {
			if !strings.Contains(p.stdout.String(), want) {
				t.Errorf("output after SIGINT lacks %q:\n%s", want, p.stdout.String())
			}
		}
		data, err := os.ReadFile(traceFile)
		if err != nil {
			t.Fatalf("-trace file: %v", err)
		}
		if kinds := traceKinds(t, data); !hasKinds(kinds, healthy...) {
			t.Errorf("-trace file kinds %v, want all of %v", kinds, healthy)
		}
	})

	// oaserver: -debug mounts the registry's routes, -slow-threshold
	// reaches the slow log, the flight recorder runs by default.
	t.Run("oaserver", func(t *testing.T) {
		s := serve(t, "-debug", "127.0.0.1:0", "-threads", "8", "-capacity", "65536", "-slow-threshold", "1ns")
		c, err := server.Dial(s.addr, 16)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= 32; k++ { // one of each data command, so every family has samples
			c.Put(k, k*3)
			c.Get(k)
			c.CAS(k, k*3, k*4)
			ca, err := c.Del(k)
			if err == nil {
				err = ca.Wait()
			}
			if err != nil {
				t.Fatalf("driving key %d: %v", k, err)
			}
		}
		c.Close()
		checkMetrics(t, "oaserver", s.debug)

		var slow struct {
			ThresholdNs int64             `json:"threshold_ns"`
			Entries     []json.RawMessage `json:"entries"`
		}
		var health struct {
			State string            `json:"state"`
			Rules []json.RawMessage `json:"rules"`
		}
		var history struct {
			IntervalMs float64  `json:"interval_ms"`
			Catalog    []string `json:"catalog"`
		}
		for route, doc := range map[string]any{"/debug/slowlog": &slow, "/healthz": &health, "/debug/history": &history} {
			if err := json.Unmarshal(get(t, s.debug+route), doc); err != nil {
				t.Fatalf("%s: %v", route, err)
			}
		}
		if slow.ThresholdNs != 1 || len(slow.Entries) == 0 {
			t.Errorf("/debug/slowlog threshold_ns=%d with %d entries, want 1 and some", slow.ThresholdNs, len(slow.Entries))
		}
		if health.State == "" || len(health.Rules) == 0 {
			t.Errorf("/healthz %+v, want a state and a rule catalog", health)
		}
		if history.IntervalMs <= 0 || len(history.Catalog) == 0 {
			t.Errorf("/debug/history %+v, want an interval and a series catalog", history)
		}
		s.drain(t, nil)
	})
}
