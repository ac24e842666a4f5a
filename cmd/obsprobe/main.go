// Command obsprobe is the observability smoke test wired into `make
// obs-smoke`: it builds oastress, starts a soak with the HTTP endpoint and
// snapshot reporter enabled, scrapes /metrics, /stats.json and /trace,
// validates all three formats (including the metric names the monitoring
// docs promise, the per-op latency histogram families, and the event
// kinds the trace timeline must carry), then interrupts the process and
// checks the graceful-shutdown contract (verification still runs, final
// stats dump, exit status 130).
//
// A second phase probes the server's request observability: it builds
// oaserver, starts it with -debug and -slow-threshold 1ns (so every
// request lands in the slow-request ring), drives a short mixed workload
// over the binary protocol, then requires the per-(command, shard)
// latency histogram families and request counters on /metrics, a
// non-empty /debug/slowlog whose entries carry the per-stage breakdown,
// and the flight-recorder surfaces oaserver now runs by default: the
// oa_health_* metric families, a /healthz rule catalog, and a
// /debug/history series catalog with fetchable frames.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// requiredMetrics are the names README/DESIGN promise on /metrics.
var requiredMetrics = []string{
	"oa_smr_restarts_total",
	"oa_smr_drain_passes_total",
	"oa_retired_backlog_slots",
	"oa_phase_pause_seconds_bucket",
	"oa_pool_shards",
	"oa_pool_steals_total",
	"oa_ready_shard_blocks",
	"smr_unreclaimed_slots",
	"stress_ops_total",
	"trace_events_total",
	"stress_contains_latency_seconds_bucket",
	"stress_insert_latency_seconds_bucket",
	"stress_delete_latency_seconds_bucket",
}

// requiredServerMetrics are the request-observability families oaserver
// must export once traffic has flowed (DESIGN.md §7.8).
var requiredServerMetrics = []string{
	"oa_server_requests_total",
	"oa_server_requests_read_total",
	"oa_server_responses_sent_total",
	"oa_server_slow_requests_total",
	"oa_server_ring_depth",
	"oa_server_ring_full_total",
	"oa_server_exec_batches_total",
	"oa_server_exec_batched_ops_total",
	"oa_server_latency_get_seconds_bucket",
	"oa_server_latency_put_seconds_bucket",
	"oa_server_latency_del_seconds_bucket",
	"oa_server_latency_cas_seconds_bucket",
	"oa_server_ring_cap",
	"oa_health_state",
	"oa_health_transitions_total",
	"flight_ticks_total",
}

// sampleLine matches one Prometheus text-format sample.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+]?([0-9.eE+-]+|Inf|NaN)$`)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "obsprobe: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("obsprobe: PASS")
}

func run() error {
	tmp, err := os.MkdirTemp("", "obsprobe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "oastress")
	build := exec.Command("go", "build", "-o", bin, "./cmd/oastress")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building oastress: %w", err)
	}

	addr, err := freeAddr()
	if err != nil {
		return err
	}
	var out bytes.Buffer
	soak := exec.Command(bin,
		"-structure", "Hash", "-scheme", "OA", "-threads", "4",
		"-keys", "256", "-duration", "2m",
		"-http", addr, "-snapshot", "200ms")
	soak.Stdout = &out
	soak.Stderr = &out
	if err := soak.Start(); err != nil {
		return err
	}
	defer soak.Process.Kill()

	base := "http://" + addr
	metrics, err := pollGet(base+"/metrics", 15*time.Second)
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w (output so far:\n%s)", err, out.String())
	}
	if err := checkMetrics(metrics, requiredMetrics); err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	fmt.Println("obsprobe: /metrics ok,", len(strings.Split(strings.TrimSpace(metrics), "\n")), "lines")

	statsBody, err := pollGet(base+"/stats.json", 5*time.Second)
	if err != nil {
		return fmt.Errorf("scraping /stats.json: %w", err)
	}
	var doc struct {
		Counters map[string]uint64  `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal([]byte(statsBody), &doc); err != nil {
		return fmt.Errorf("/stats.json does not parse: %w", err)
	}
	if len(doc.Counters) == 0 {
		return errors.New("/stats.json has no counters")
	}
	if _, ok := doc.Counters["oa_smr_restarts_total"]; !ok {
		return errors.New("/stats.json missing oa_smr_restarts_total")
	}
	fmt.Println("obsprobe: /stats.json ok,", len(doc.Counters), "counters,", len(doc.Gauges), "gauges")

	// /trace must serve a Chrome trace_event document whose timeline
	// eventually carries reclamation phase transitions (the soak's δ is
	// crossed many times per second, so retry briefly rather than racing
	// the first phase).
	if err := pollTrace(base+"/trace", 15*time.Second); err != nil {
		return fmt.Errorf("/trace: %w", err)
	}
	jsonl, err := pollGet(base+"/trace?format=jsonl", 5*time.Second)
	if err != nil {
		return fmt.Errorf("/trace?format=jsonl: %w", err)
	}
	for i, line := range strings.Split(strings.TrimSpace(jsonl), "\n") {
		var ev struct {
			TsNs *int64  `json:"ts_ns"`
			Kind *string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.TsNs == nil || ev.Kind == nil {
			return fmt.Errorf("/trace?format=jsonl line %d invalid (%v): %q", i+1, err, line)
		}
	}

	// Graceful interrupt: verification must still run and the process must
	// exit 130 after dumping final stats.
	if err := soak.Process.Signal(syscall.SIGINT); err != nil {
		return err
	}
	werr := soak.Wait()
	var exitErr *exec.ExitError
	if !errors.As(werr, &exitErr) || exitErr.ExitCode() != 130 {
		return fmt.Errorf("expected exit status 130 after SIGINT, got %v (output:\n%s)", werr, out.String())
	}
	for _, want := range []string{"OK   Hash", "final stats", "snap +"} {
		if !strings.Contains(out.String(), want) {
			return fmt.Errorf("output missing %q after interrupt:\n%s", want, out.String())
		}
	}
	fmt.Println("obsprobe: SIGINT handled — verification ran, stats dumped, exit 130")

	return serverPhase(tmp)
}

// serverPhase drives a short workload against oaserver and validates the
// request-observability surface: the RED metric families on /metrics and
// the slow-request ring on /debug/slowlog (every request qualifies at a
// 1ns threshold).
func serverPhase(tmp string) error {
	bin := filepath.Join(tmp, "oaserver")
	build := exec.Command("go", "build", "-o", bin, "./cmd/oaserver")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building oaserver: %w", err)
	}

	addr, err := freeAddr()
	if err != nil {
		return err
	}
	debugAddr, err := freeAddr()
	if err != nil {
		return err
	}
	var out bytes.Buffer
	srv := exec.Command(bin,
		"-addr", addr, "-debug", debugAddr,
		"-threads", "8", "-capacity", "65536",
		"-slow-threshold", "1ns")
	srv.Stdout = &out
	srv.Stderr = &out
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Process.Kill()

	// Drive one of each data command (plus misses) so every histogram
	// family has samples and the slowlog has entries of several kinds.
	if err := driveServer(addr, 10*time.Second); err != nil {
		return fmt.Errorf("driving oaserver: %w (output:\n%s)", err, out.String())
	}

	base := "http://" + debugAddr
	metrics, err := pollGet(base+"/metrics", 10*time.Second)
	if err != nil {
		return fmt.Errorf("scraping oaserver /metrics: %w (output:\n%s)", err, out.String())
	}
	if err := checkMetrics(metrics, requiredServerMetrics); err != nil {
		return fmt.Errorf("oaserver /metrics: %w", err)
	}
	fmt.Println("obsprobe: oaserver /metrics ok — request counters and per-command latency families present")

	slowBody, err := pollGet(base+"/debug/slowlog", 5*time.Second)
	if err != nil {
		return fmt.Errorf("scraping /debug/slowlog: %w", err)
	}
	var slow struct {
		ThresholdNs int64 `json:"threshold_ns"`
		Total       uint64
		Entries     []struct {
			Op       string           `json:"op"`
			Status   string           `json:"status"`
			ServerNs int64            `json:"server_ns"`
			Stages   map[string]int64 `json:"stages"`
		} `json:"entries"`
	}
	if err := json.Unmarshal([]byte(slowBody), &slow); err != nil {
		return fmt.Errorf("/debug/slowlog does not parse: %w\n%s", err, slowBody)
	}
	if slow.ThresholdNs != 1 {
		return fmt.Errorf("/debug/slowlog threshold_ns = %d, want 1", slow.ThresholdNs)
	}
	if len(slow.Entries) == 0 {
		return fmt.Errorf("/debug/slowlog empty at a 1ns threshold:\n%s", slowBody)
	}
	for i, e := range slow.Entries {
		if e.Op == "" || e.Status == "" || e.ServerNs <= 0 || len(e.Stages) == 0 {
			return fmt.Errorf("/debug/slowlog entry %d incomplete: %+v", i, e)
		}
	}
	fmt.Printf("obsprobe: /debug/slowlog ok, %d entries with per-stage breakdowns\n", len(slow.Entries))

	// The flight recorder runs by default in oaserver, so its surfaces
	// are part of the observability contract: /healthz must report a
	// state with a populated rule catalog, and /debug/history must serve
	// a series catalog plus fetchable frames for a concrete series.
	healthBody, err := pollGet(base+"/healthz", 5*time.Second)
	if err != nil {
		return fmt.Errorf("scraping /healthz: %w", err)
	}
	var health struct {
		State string `json:"state"`
		Rules []struct {
			Name     string `json:"name"`
			Severity string `json:"severity"`
		} `json:"rules"`
	}
	if err := json.Unmarshal([]byte(healthBody), &health); err != nil {
		return fmt.Errorf("/healthz does not parse: %w\n%s", err, healthBody)
	}
	if health.State == "" || len(health.Rules) == 0 {
		return fmt.Errorf("/healthz missing state or rule catalog:\n%s", healthBody)
	}
	ruleNames := map[string]bool{}
	for _, r := range health.Rules {
		ruleNames[r.Name] = true
	}
	for _, want := range []string{"backlog_growth", "ring_saturation", "phase_stalled", "slo_p99_burn"} {
		if !ruleNames[want] {
			return fmt.Errorf("/healthz rule catalog missing %q:\n%s", want, healthBody)
		}
	}
	fmt.Printf("obsprobe: /healthz ok — state %q with %d rules\n", health.State, len(health.Rules))

	histBody, err := pollGet(base+"/debug/history", 5*time.Second)
	if err != nil {
		return fmt.Errorf("scraping /debug/history: %w", err)
	}
	var catalog struct {
		IntervalMs float64  `json:"interval_ms"`
		Catalog    []string `json:"catalog"`
	}
	if err := json.Unmarshal([]byte(histBody), &catalog); err != nil {
		return fmt.Errorf("/debug/history does not parse: %w\n%s", err, histBody)
	}
	if catalog.IntervalMs <= 0 || len(catalog.Catalog) == 0 {
		return fmt.Errorf("/debug/history missing interval or series catalog:\n%s", histBody)
	}
	seriesBody, err := pollGet(base+"/debug/history?series=oa_retired_backlog_slots", 5*time.Second)
	if err != nil {
		return fmt.Errorf("fetching backlog series from /debug/history: %w", err)
	}
	var series struct {
		Frames int                  `json:"frames"`
		TsMs   []float64            `json:"ts_unix_ms"`
		Series map[string][]float64 `json:"series"`
	}
	if err := json.Unmarshal([]byte(seriesBody), &series); err != nil {
		return fmt.Errorf("/debug/history series fetch does not parse: %w\n%s", err, seriesBody)
	}
	vals, ok := series.Series["oa_retired_backlog_slots"]
	if !ok || series.Frames == 0 || len(vals) != series.Frames || len(series.TsMs) != series.Frames {
		return fmt.Errorf("/debug/history series fetch inconsistent (frames=%d):\n%s", series.Frames, seriesBody)
	}
	fmt.Printf("obsprobe: /debug/history ok — %d series cataloged, %d frames for the backlog gauge\n",
		len(catalog.Catalog), series.Frames)
	return nil
}

// driveServer issues a small mixed workload over the binary protocol —
// one of each data command per key so every latency family has samples.
func driveServer(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var c *server.Client
	for {
		var err error
		if c, err = server.Dial(addr, 16); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dialing: %w", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer c.Close()
	for k := uint64(1); k <= 32; k++ {
		for _, issue := range []func() (*server.Call, error){
			func() (*server.Call, error) { return c.Put(k, k*3) },
			func() (*server.Call, error) { return c.Get(k) },
			func() (*server.Call, error) { return c.CAS(k, k*3, k*4) },
			func() (*server.Call, error) { return c.Del(k) },
		} {
			ca, err := issue()
			if err != nil {
				return err
			}
			if err := ca.Wait(); err != nil {
				return err
			}
		}
	}
	return nil
}

// freeAddr grabs an ephemeral localhost port. The listener is closed
// before oastress binds it — a harmless race for a smoke test.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// pollGet retries GET until the server answers 200.
func pollGet(url string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return string(body), nil
			}
			last = fmt.Errorf("status %d", resp.StatusCode)
		} else {
			last = err
		}
		time.Sleep(100 * time.Millisecond)
	}
	return "", fmt.Errorf("timed out: %v", last)
}

// pollTrace retries the /trace endpoint until it serves a well-formed
// Chrome trace_event document containing phase-transition events.
func pollTrace(url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		body, err := pollGet(url, time.Second)
		if err != nil {
			last = err
			continue
		}
		var doc struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Ts   float64 `json:"ts"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			return fmt.Errorf("not a chrome trace document: %w", err)
		}
		kinds := map[string]int{}
		for _, e := range doc.TraceEvents {
			if e.Ph != "i" {
				return fmt.Errorf("event %q has phase %q, want instant", e.Name, e.Ph)
			}
			kinds[e.Name]++
		}
		if kinds["phase"] > 0 {
			fmt.Printf("obsprobe: /trace ok, %d events (%d phase transitions)\n",
				len(doc.TraceEvents), kinds["phase"])
			return nil
		}
		last = fmt.Errorf("no phase events yet among %d events", len(doc.TraceEvents))
		time.Sleep(200 * time.Millisecond)
	}
	return fmt.Errorf("timed out: %v", last)
}

// checkMetrics validates the Prometheus text format line by line and the
// presence of the promised metric names.
func checkMetrics(body string, required []string) error {
	seen := map[string]bool{}
	for i, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			return fmt.Errorf("line %d is not a valid sample: %q", i+1, line)
		}
		name := line
		if j := strings.IndexAny(line, "{ "); j >= 0 {
			name = line[:j]
		}
		seen[name] = true
	}
	var missing []string
	for _, want := range required {
		if !seen[want] {
			missing = append(missing, want)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("missing %d required metric families:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
	return nil
}
