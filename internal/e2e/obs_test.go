package e2e

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/server"
)

// sampleLine matches one Prometheus text-format sample.
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? [-+]?([0-9.eE+-]+|Inf|NaN)$`)

// catalogueRow matches one row of DESIGN.md §6's signal catalogue:
// | `family` | type | command, command | consumer |
var catalogueRow = regexp.MustCompile("^\\| `([a-z_]+)` \\| (counter|gauge|histogram) \\| ([a-z, ]+) \\| (.+) \\|$")

// catalogue returns, per command, the families DESIGN.md §6 promises on
// its /metrics, each with its type.
func catalogue(t *testing.T) map[string]map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start, end := strings.Index(doc, "\n## 6. "), strings.Index(doc, "\n## 7. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §6")
	}
	out := map[string]map[string]string{}
	for _, line := range strings.Split(doc[start:end], "\n") {
		m := catalogueRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, cmd := range strings.Split(m[3], ",") {
			cmd = strings.TrimSpace(cmd)
			if out[cmd] == nil {
				out[cmd] = map[string]string{}
			}
			if _, dup := out[cmd][m[1]]; dup {
				t.Fatalf("DESIGN.md §6 lists %s twice for %s", m[1], cmd)
			}
			out[cmd][m[1]] = m[2]
		}
	}
	if len(out) == 0 {
		t.Fatal("DESIGN.md §6 has no signal catalogue rows")
	}
	return out
}

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
// sample grammar and its families to the signal catalogue: every family
// shown has a row for cmd with its type, and every row for cmd is shown.
func checkMetrics(t *testing.T, cmd, base string) {
	t.Helper()
	want := catalogue(t)[cmd]
	seen := map[string]bool{}
	for i, line := range strings.Split(string(get(t, base+"/metrics")), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			seen[f[2]] = true
			if typ, ok := want[f[2]]; !ok || typ != f[3] {
				t.Errorf("%s /metrics shows %s %s, which DESIGN.md §6 does not catalogue for %s (row type %q)", cmd, f[3], f[2], cmd, typ)
			}
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if sampleLine.FindStringSubmatch(line) == nil {
			t.Fatalf("%s /metrics line %d is not a valid sample: %q", cmd, i+1, line)
		}
	}
	for family := range want {
		if !seen[family] {
			t.Errorf("%s /metrics lacks %s, catalogued for it in DESIGN.md §6", cmd, family)
		}
	}
}

// samples scrapes base's /metrics and returns family's samples, keyed by
// their label set ("" when unlabelled).
func samples(t *testing.T, base, family string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(string(get(t, base+"/metrics")), "\n") {
		m := sampleLine.FindStringSubmatch(line)
		if m == nil || m[1] != family {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("/metrics sample %q: %v", line, err)
		}
		out[m[2]] = v
	}
	return out
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
	// reaches the slow log, the flight recorder runs by default, and the
	// SMR families cover every shard: the two shards' reserved arena slots
	// add up to -capacity, each shard holding its half.
	t.Run("oaserver", func(t *testing.T) {
		s := serve(t, "-debug", "127.0.0.1:0", "-threads", "8", "-shards", "2", "-capacity", "65536", "-slow-threshold", "1ns")
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
		reserved := samples(t, s.debug, "oa_arena_slots_reserved")
		if len(reserved) != 2 || reserved[`{shard="0"}`] != 32768 || reserved[`{shard="1"}`] != 32768 {
			t.Errorf("oa_arena_slots_reserved series %v, want 32768 on each of shards 0 and 1 (-capacity 65536)", reserved)
		}

		var slow struct {
			ThresholdNs int64             `json:"threshold_ns"`
			Entries     []json.RawMessage `json:"entries"`
		}
		var health struct {
			State string            `json:"state"`
			Rules []json.RawMessage `json:"rules"`
		}
		for route, doc := range map[string]any{"/debug/slowlog": &slow, "/healthz": &health} {
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
		s.drain(t, nil)
	})
}
