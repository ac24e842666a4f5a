package flight

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/obs"
)

func nowNs() int64 { return time.Now().UnixNano() }

// RegisterObs exports the recorder's state on reg and attaches /healthz:
//
//	oa_health_state                   0 ok / 1 degraded / 2 critical
//	oa_health_rule_firing{rule="i"}   1 while rule i fires
//
// The rule label is the rule's index; the name↔index mapping is in
// /healthz (rules are listed in index order).
func (r *Recorder) RegisterObs(reg *obs.Registry) {
	reg.Gauge("oa_health_state", "health engine state (0 ok, 1 degraded, 2 critical)",
		func() float64 { return float64(r.health.state.Load()) })
	reg.GaugeVec("oa_health_rule_firing", "1 while the indexed health rule fires (names in /healthz)", "rule",
		len(r.health.rules), func(i int) float64 {
			if r.health.states[i].firing.Load() {
				return 1
			}
			return 0
		})
	reg.Trace(r.tracer)
	reg.Handle("/healthz", http.HandlerFunc(r.serveHealthz))
}

// serveHealthz renders the health Status. The process keeps serving
// while degraded, so only critical maps to 503 — load balancers drain
// on status code, and shedding a merely degraded instance would turn
// every backlog episode into an outage.
func (r *Recorder) serveHealthz(w http.ResponseWriter, req *http.Request) {
	s := r.Health()
	w.Header().Set("Content-Type", "application/json")
	if s.State == StateCritical.String() {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s)
}
