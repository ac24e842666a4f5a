package e2e

import (
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/kvmap"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

// TestHealthWiring drives a real server wired to a real flight recorder,
// the way cmd/oaserver wires them, into each degraded state on purpose:
// a stalled executor fills a 16-slot ring until ring_saturation fires,
// then PUT+DEL churn over fresh keys grows the retired backlog until
// backlog_growth fires. Each rule must surface on /healthz, RESP `INFO
// health` and the STATS block, leave EvHealth events, and clear once the
// pressure is gone. Both provocations are deterministic, not scheduler
// races, so the transitions are asserted on every host.
func TestHealthWiring(t *testing.T) {
	skipShort(t)
	obs.SetEnabled(true)
	trace.SetEnabled(true)
	defer obs.SetEnabled(false)
	defer trace.SetEnabled(false)

	// One shard keeps the provocations deterministic: every request lands
	// on the same ring and the same reclamation universe.
	sh := kvmap.NewSharded(core.Config{MaxThreads: 16, Capacity: 1 << 20}, 1<<16, 1)
	defer sh.Close()
	// gate is the executor valve: while it holds a channel every drain
	// pass blocks on it; closing and clearing it releases the executor.
	var gate atomic.Pointer[chan struct{}]
	srv := server.New(server.Config{
		Shards:   sh,
		RingSize: 16,
		RingWait: time.Millisecond,
		ExecGate: func(int) {
			if ch := gate.Load(); ch != nil {
				<-*ch
			}
		},
	})
	reg := obs.NewRegistry()
	sh.Shard(0).Manager().RegisterObs(reg)
	srv.RegisterObs(reg)
	rec := flight.New(reg, flight.Config{
		Interval: 25 * time.Millisecond, Window: 30 * time.Second, FireTicks: 4, ClearTicks: 4,
		SLOP99: time.Second, // in the rule catalog, never firing here
	})
	rec.RegisterObs(reg)
	srv.SetHealth(func() any { return rec.Health() })
	rec.Start()
	defer rec.Stop()

	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	bin, resp, web := listen(), listen(), listen()
	go srv.Serve(bin)
	go srv.ServeRESP(resp)
	go http.Serve(web, reg.Handler())
	defer web.Close()
	defer srv.Shutdown()

	healthz := func() (st flight.Status) {
		t.Helper()
		if err := json.Unmarshal(get(t, "http://"+web.Addr().String()+"/healthz"), &st); err != nil {
			t.Fatalf("/healthz: %v", err)
		}
		return st
	}
	firing := func(st flight.Status, rule string) bool {
		for _, r := range st.Rules {
			if r.Name == rule {
				return r.Firing
			}
		}
		t.Fatalf("/healthz rule catalog lacks %q: %+v", rule, st.Rules)
		return false
	}
	// fired waits for the rule, then checks every surface agrees.
	fired := func(rule string) {
		t.Helper()
		eventually(t, rule+" to fire", func() bool { return firing(healthz(), rule) })
		if st := healthz(); st.State != "degraded" {
			t.Fatalf("%s fired but /healthz state = %q", rule, st.State)
		}
		rc := dialRESP(t, resp.Addr().String())
		defer rc.Close()
		v, err := rc.Do("INFO", "health")
		if info := string(v.Str); err != nil || !strings.Contains(info, `health_state:"degraded"`) || !strings.Contains(info, rule) {
			t.Fatalf("INFO health lacks the degraded state or %s (%v):\n%s", rule, err, info)
		}
	}
	cleared := func(rule string) {
		t.Helper()
		eventually(t, rule+" to clear", func() bool { return !firing(healthz(), rule) })
	}

	st := healthz()
	if st.State != "ok" {
		t.Fatalf("initial state = %q, want ok", st.State)
	}
	for _, rule := range []string{"backlog_growth", "ring_saturation", "phase_stalled", "slo_p99_burn"} {
		firing(st, rule) // fails on a rule the catalog lacks
	}
	c, err := server.Dial(bin.Addr().String(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Ring saturation: 64 pipelined puts against a gated 16-slot ring.
	ch := make(chan struct{})
	gate.Store(&ch)
	var queued []*server.Call
	for i := uint64(0); i < 64; i++ {
		ca, err := c.Put(i, i)
		if err != nil {
			t.Fatalf("pipelined put: %v", err)
		}
		queued = append(queued, ca)
	}
	c.Flush()
	fired("ring_saturation")
	close(ch)
	gate.Store(nil)
	busy := 0
	for _, ca := range queued {
		if err := ca.Wait(); err != nil {
			t.Fatalf("queued put after the gate opened: %v", err)
		}
		if ca.Status == server.StBusy {
			busy++
		}
	}
	if busy == 0 {
		t.Error("no BUSY answers while the ring was gated: backpressure never engaged")
	}
	cleared("ring_saturation")

	// Backlog growth: every PUT allocates a node, every DEL retires it,
	// and the lazily recycling scheme lets the retired backlog climb.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := uint64(0); w < 2; w++ {
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			for ; ; k += 2 {
				select {
				case <-stop:
					return
				default:
				}
				put, err := c.Put(k, k)
				if err != nil {
					return
				}
				del, err := c.Del(k)
				if err != nil {
					return
				}
				put.Wait()
				del.Wait()
			}
		}(1e9 + w)
	}
	fired("backlog_growth")
	close(stop)
	wg.Wait()
	cleared("backlog_growth")

	// Two fire/clear cycles: four transitions, on every surface.
	st = healthz()
	if st.State != "ok" || st.Transitions < 4 {
		t.Fatalf("final /healthz state %q after %d transitions, want ok after >= 4", st.State, st.Transitions)
	}
	events := 0
	for _, e := range rec.Tracer().Events() {
		if e.Kind == trace.EvHealth {
			events++
			if old, new, mask := trace.UnpackHealth(e.Arg); old == new {
				t.Errorf("EvHealth with no state change: %d -> %d (mask %#x)", old, new, mask)
			}
		}
	}
	if events < 4 {
		t.Errorf("recorded %d EvHealth events, want >= 4", events)
	}
	var doc struct {
		Health flight.Status `json:"health"`
	}
	body, err := c.Stats()
	if err == nil {
		err = json.Unmarshal(body, &doc)
	}
	if err != nil || doc.Health.State != "ok" || doc.Health.Transitions != st.Transitions {
		t.Errorf("STATS health block %+v (%v), want ok with %d transitions", doc.Health, err, st.Transitions)
	}
}
