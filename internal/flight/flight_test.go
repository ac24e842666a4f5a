package flight

import (
	"encoding/json"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

func testConfig() Config {
	return Config{
		Interval:   time.Millisecond,
		FireTicks:  3,
		ClearTicks: 2,
	}
}

// ruleStatus returns the named rule's status, failing when the catalogue
// lacks it.
func ruleStatus(t *testing.T, r *Recorder, name string) RuleStatus {
	t.Helper()
	for _, rs := range r.Health().Rules {
		if rs.Name == name {
			return rs
		}
	}
	t.Fatalf("rule catalogue lacks %q", name)
	return RuleStatus{}
}

// TestTickZeroAlloc proves a steady-state tick allocates nothing with
// every rule's input wired: the acceptance bar for leaving the recorder
// on in production.
func TestTickZeroAlloc(t *testing.T) {
	var g atomic.Uint64
	var h obs.Histogram
	cfg := testConfig()
	cfg.SLOP99 = 20 * time.Millisecond
	cfg.SLOOps = 1 // exercises every rule's eval path
	r := New(Inputs{
		Shards:   4,
		Backlog:  func(i int) uint64 { return g.Load() + uint64(i) },
		Frozen:   func(int) bool { return false },
		Ring:     func() (int, int) { return 3, 64 },
		Requests: g.Load,
		Commands: 4,
		Latency:  func(int) obs.Snapshot { return h.Snapshot() },
	}, cfg)
	r.Tick()

	allocs := testing.AllocsPerRun(100, func() {
		g.Add(3)
		h.ObserveNs(500)
		r.Tick()
	})
	if allocs != 0 {
		t.Fatalf("steady-state tick allocates %v times, want 0", allocs)
	}
}

// TestHealthEngineFiresAndClears drives the backlog-growth rule through
// fire → clear and checks hysteresis, state, transitions and the
// EvHealth trace events.
func TestHealthEngineFiresAndClears(t *testing.T) {
	var backlog atomic.Uint64
	r := New(Inputs{Shards: 1, Backlog: func(int) uint64 { return backlog.Load() }},
		testConfig()) // fire after 3 bad ticks, clear after 2 good
	r.Tick() // first tick: baseline only

	backlog.Store(2000)
	r.Tick() // growth tick 1 (2000 > 0, above floor)
	if r.State() != StateOK {
		t.Fatalf("fired after 1 bad tick despite FireTicks=3")
	}
	for i := 0; i < 2; i++ {
		backlog.Add(500)
		r.Tick()
	}
	if r.State() != StateDegraded {
		t.Fatalf("state = %v after 3 growing ticks, want degraded", r.State())
	}
	st := r.Health()
	if st.Firing != "backlog_growth" {
		t.Fatalf("firing = %q, want backlog_growth", st.Firing)
	}
	if st.Transitions != 1 {
		t.Fatalf("transitions = %d, want 1", st.Transitions)
	}

	// Hold the backlog flat: 2 quiet ticks clear the rule.
	r.Tick()
	if r.State() != StateDegraded {
		t.Fatal("cleared after 1 good tick despite ClearTicks=2")
	}
	r.Tick()
	if r.State() != StateOK {
		t.Fatalf("state = %v after ClearTicks quiet ticks, want ok", r.State())
	}
	if got := r.Health().Transitions; got != 2 {
		t.Fatalf("transitions = %d, want 2", got)
	}

	evs := r.Tracer().Events()
	var health []trace.Event
	for _, e := range evs {
		if e.Kind == trace.EvHealth {
			health = append(health, e)
		}
	}
	if len(health) != 2 {
		t.Fatalf("recorded %d EvHealth events, want 2", len(health))
	}
	o1, n1, mask := trace.UnpackHealth(health[0].Arg)
	if State(o1) != StateOK || State(n1) != StateDegraded || mask == 0 {
		t.Fatalf("first transition payload = (%d,%d,%#x)", o1, n1, mask)
	}
	o2, n2, _ := trace.UnpackHealth(health[1].Arg)
	if State(o2) != StateDegraded || State(n2) != StateOK {
		t.Fatalf("second transition payload = (%d,%d)", o2, n2)
	}
}

// TestBacklogGrowthWatchesEveryShard grows only the last of three
// shards' backlogs: the rule must fire on it, report the fastest growth
// as its value, and stay quiet for growth below the floor.
func TestBacklogGrowthWatchesEveryShard(t *testing.T) {
	var backlogs [3]atomic.Uint64
	backlogs[0].Store(5000) // large but flat: never bad
	r := New(Inputs{Shards: 3, Backlog: func(i int) uint64 { return backlogs[i].Load() }},
		testConfig())
	r.Tick()
	for i := 0; i < 3; i++ {
		backlogs[1].Add(10) // growing but below the floor
		r.Tick()
	}
	if r.State() != StateOK {
		t.Fatalf("growth below the floor fired: %+v", r.Health())
	}
	backlogs[2].Store(1000)
	for i := 0; i < 3; i++ {
		backlogs[2].Add(1000)
		r.Tick()
	}
	rs := ruleStatus(t, r, "backlog_growth")
	if !rs.Firing || r.State() != StateDegraded {
		t.Fatalf("shard 2's growth did not fire backlog_growth: %+v", rs)
	}
	// 1000 slots per tick at a 1ms interval is of the order of 1e6
	// slots/s; the flat and the slow shards report 0 and ~1e4.
	if rs.Value < 1e5 {
		t.Fatalf("backlog_growth value = %v slots/s, want shard 2's growth", rs.Value)
	}
	for i := 0; i < 2; i++ {
		r.Tick()
	}
	if ruleStatus(t, r, "backlog_growth").Firing {
		t.Fatal("backlog_growth still firing after the growth stopped")
	}
}

// TestRingSaturation checks the derivation (deepest ring over the bound)
// and the 0.8 threshold.
func TestRingSaturation(t *testing.T) {
	var depth atomic.Int64
	r := New(Inputs{Ring: func() (int, int) { return int(depth.Load()), 64 }}, testConfig())
	r.Tick()
	depth.Store(51) // 0.797: below the threshold
	for i := 0; i < 4; i++ {
		r.Tick()
	}
	if rs := ruleStatus(t, r, "ring_saturation"); rs.Firing || rs.Value != 51.0/64 {
		t.Fatalf("ring_saturation at depth 51/64: %+v", rs)
	}
	depth.Store(52) // 0.8125
	for i := 0; i < 3; i++ {
		r.Tick()
	}
	if rs := ruleStatus(t, r, "ring_saturation"); !rs.Firing || rs.Value != 52.0/64 {
		t.Fatalf("ring_saturation at depth 52/64: %+v", rs)
	}
}

// TestLatencyWindowP99 checks the slo_p99_burn rule reads the p99 of the
// last p99Window of ticks only: a slow burst fires it, and once the
// burst has slid out of the window the rule clears.
func TestLatencyWindowP99(t *testing.T) {
	var fast, slow obs.Histogram
	cfg := testConfig()
	cfg.Interval = time.Second // a 10-tick window
	cfg.SLOP99 = time.Millisecond
	r := New(Inputs{Commands: 2, Latency: func(c int) obs.Snapshot {
		if c == 0 {
			return fast.Snapshot()
		}
		return slow.Snapshot()
	}}, cfg)
	r.Tick()
	for i := 0; i < 100; i++ {
		fast.ObserveNs(1000)
		slow.ObserveNs(uint64(5 * time.Millisecond))
	}
	for i := 0; i < 3; i++ {
		r.Tick()
	}
	rs := ruleStatus(t, r, "slo_p99_burn")
	// 5ms lands in the bucket whose upper edge is 2^23-1 ns ≈ 8.4ms.
	if !rs.Firing || rs.Value < 5 || rs.Value > 8.4 {
		t.Fatalf("slo_p99_burn after a slow burst: %+v", rs)
	}
	for i := 0; i < 10; i++ {
		fast.ObserveNs(1000)
		r.Tick()
	}
	if rs := ruleStatus(t, r, "slo_p99_burn"); rs.Firing || rs.Value > 0.01 {
		t.Fatalf("slo_p99_burn after the burst left the window: %+v", rs)
	}
}

// TestPhaseStalledIsCritical checks the frozen-retire-pool rule raises
// critical when any shard is frozen and that /healthz turns 503 only
// then.
func TestPhaseStalledIsCritical(t *testing.T) {
	var frozen atomic.Bool
	r := New(Inputs{Shards: 2, Frozen: func(i int) bool { return i == 1 && frozen.Load() }},
		testConfig())
	reg := obs.NewRegistry()
	r.RegisterObs(reg)
	r.Tick()

	srv := httptest.NewServer(obs.HandlerFor(func() *obs.Registry { return reg }))
	defer srv.Close()

	get := func() (int, Status) {
		resp, err := srv.Client().Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var s Status
		if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, s
	}

	if code, s := get(); code != 200 || s.State != "ok" {
		t.Fatalf("healthy probe: code=%d state=%s", code, s.State)
	}
	frozen.Store(true)
	for i := 0; i < 4; i++ {
		r.Tick()
	}
	code, s := get()
	if code != 503 || s.State != "critical" {
		t.Fatalf("stalled probe: code=%d state=%s, want 503 critical", code, s.State)
	}
	if s.Firing != "phase_stalled" {
		t.Fatalf("firing = %q, want phase_stalled", s.Firing)
	}
	frozen.Store(false)
	for i := 0; i < 3; i++ {
		r.Tick()
	}
	if code, s := get(); code != 200 || s.State != "ok" {
		t.Fatalf("recovered probe: code=%d state=%s", code, s.State)
	}
}
