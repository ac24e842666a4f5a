package flight

import (
	"math"
	"sync/atomic"

	"repro/internal/trace"
)

// State classifies the process health.
type State uint32

const (
	StateOK State = iota
	StateDegraded
	StateCritical
)

// String returns the lowercase export name.
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateDegraded:
		return "degraded"
	case StateCritical:
		return "critical"
	}
	return "unknown"
}

// Default rule thresholds (see DESIGN.md §8 for the full table).
const (
	// backlogFloor keeps the growth rule quiet until the retired
	// backlog is big enough to matter: growth must be sustained AND the
	// absolute backlog above this many slots.
	backlogFloor = 1024.0
	// satThreshold is the ring-saturation fraction (depth/capacity) at
	// which the saturation rule counts a tick as bad.
	satThreshold = 0.8
)

// rule is one declarative health check, evaluated every tick against
// the freshly sampled frame.
type rule struct {
	name      string
	severity  State
	threshold float64
	// active reports whether this tick violates the rule; ok=false
	// means the signal the rule needs is absent (rule disabled).
	active func(p *plan, cur, prev []float64, dt float64) (value float64, active, ok bool)
	// fire/clear hysteresis in ticks; filled from Config.
	fire, clear int
}

// ruleState is the mutable half: streaks are tick-goroutine-private,
// the rest is read concurrently by /healthz and the stats hook.
type ruleState struct {
	fireStreak  int
	clearStreak int
	firing      atomic.Bool
	value       atomic.Uint64 // float bits of the last evaluated value
	firedTotal  atomic.Uint64
	sinceNs     atomic.Int64 // wall time the current firing began
}

type health struct {
	r      *Recorder
	rules  []rule
	states []ruleState

	state       atomic.Uint32
	sinceNs     atomic.Int64 // wall time of the last state change
	transitions atomic.Uint64
}

func newHealth(r *Recorder) *health {
	cfg := r.cfg
	h := &health{r: r}
	add := func(ru rule) {
		ru.fire, ru.clear = cfg.FireTicks, cfg.ClearTicks
		h.rules = append(h.rules, ru)
	}
	add(rule{
		name: "backlog_growth", severity: StateDegraded, threshold: 0,
		active: func(p *plan, cur, prev []float64, dt float64) (float64, bool, bool) {
			if p.backlogIdx < 0 {
				return 0, false, false
			}
			growth := cur[p.dBacklog] // slots/sec, 0 on the first tick
			bad := cur[p.backlogIdx] > prev[p.backlogIdx] && cur[p.backlogIdx] >= backlogFloor
			return growth, bad, true
		},
	})
	add(rule{
		name: "ring_saturation", severity: StateDegraded, threshold: satThreshold,
		active: func(p *plan, cur, prev []float64, dt float64) (float64, bool, bool) {
			if p.ringCapIdx < 0 || len(p.depthIdxs) == 0 || cur[p.ringCapIdx] <= 0 {
				return 0, false, false
			}
			sat := cur[p.dSat]
			return sat, sat >= satThreshold, true
		},
	})
	add(rule{
		name: "phase_stalled", severity: StateCritical, threshold: 1,
		active: func(p *plan, cur, prev []float64, dt float64) (float64, bool, bool) {
			if p.frozenIdx < 0 {
				return 0, false, false
			}
			v := cur[p.frozenIdx]
			return v, v >= 1, true
		},
	})
	if cfg.SLOP99 > 0 {
		target := float64(cfg.SLOP99.Nanoseconds())
		add(rule{
			name: "slo_p99_burn", severity: StateDegraded, threshold: 1,
			active: func(p *plan, cur, prev []float64, dt float64) (float64, bool, bool) {
				worst := 0.0
				seen := false
				for _, ht := range p.hists {
					if !ht.cmdLat {
						continue
					}
					seen = true
					if v := cur[ht.seriesIdx]; v > worst {
						worst = v
					}
				}
				if !seen {
					return 0, false, false
				}
				burn := worst / target
				return burn, burn > 1, true
			},
		})
	}
	if cfg.SLOOps > 0 {
		floor := cfg.SLOOps
		add(rule{
			name: "slo_ops", severity: StateDegraded, threshold: floor,
			active: func(p *plan, cur, prev []float64, dt float64) (float64, bool, bool) {
				if p.opsIdx < 0 {
					return 0, false, false
				}
				rate := cur[p.dOps]
				return rate, rate < floor, true
			},
		})
	}
	h.states = make([]ruleState, len(h.rules))
	return h
}

// eval runs every rule against the tick's samples and folds the firing
// set into the process state, emitting an EvHealth trace event on each
// transition. Tick-goroutine only; allocation-free.
func (h *health) eval(p *plan, cur, prev []float64, dt float64, first bool) {
	for i := range h.rules {
		ru := &h.rules[i]
		st := &h.states[i]
		v, active, ok := ru.active(p, cur, prev, dt)
		st.value.Store(math.Float64bits(v))
		if !ok || first {
			continue
		}
		if active {
			st.clearStreak = 0
			st.fireStreak++
			if st.fireStreak >= ru.fire && !st.firing.Load() {
				st.firing.Store(true)
				st.firedTotal.Add(1)
				st.sinceNs.Store(nowNs())
			}
		} else {
			st.fireStreak = 0
			if st.firing.Load() {
				st.clearStreak++
				if st.clearStreak >= ru.clear {
					st.firing.Store(false)
					st.clearStreak = 0
				}
			}
		}
	}

	next := StateOK
	var mask uint32
	for i := range h.states {
		if h.states[i].firing.Load() {
			if i < 32 {
				mask |= 1 << uint(i)
			}
			if h.rules[i].severity > next {
				next = h.rules[i].severity
			}
		}
	}
	old := State(h.state.Load())
	if next != old {
		h.state.Store(uint32(next))
		h.sinceNs.Store(nowNs())
		h.transitions.Add(1)
		h.r.tracer.Ring(0).Record(trace.EvHealth,
			trace.HealthPayload(uint8(old), uint8(next), mask))
	}
}

// RuleStatus is one rule's externally visible state.
type RuleStatus struct {
	Name       string  `json:"name"`
	Severity   string  `json:"severity"`
	Firing     bool    `json:"firing"`
	Value      float64 `json:"value"`
	Threshold  float64 `json:"threshold"`
	FiredTotal uint64  `json:"fired_total"`
	SinceNs    int64   `json:"since_ns,omitempty"`
}

// Status is the health document served by /healthz, embedded in the
// server's STATS payload and flattened into RESP `INFO health`. Firing
// is a comma-joined scalar (not an array) so the INFO renderer, which
// skips nested values, still carries the firing rule names.
type Status struct {
	State       string       `json:"state"`
	SinceNs     int64        `json:"since_ns"`
	Transitions uint64       `json:"transitions"`
	Firing      string       `json:"firing"`
	Rules       []RuleStatus `json:"rules,omitempty"`
}

// State returns the current aggregate state.
func (r *Recorder) State() State { return State(r.health.state.Load()) }

// Transitions returns how many state changes the engine has seen.
func (r *Recorder) Transitions() uint64 { return r.health.transitions.Load() }

// Health assembles the current Status. Safe to call concurrently with
// ticking.
func (r *Recorder) Health() Status {
	h := r.health
	s := Status{
		State:       State(h.state.Load()).String(),
		SinceNs:     h.sinceNs.Load(),
		Transitions: h.transitions.Load(),
	}
	firing := ""
	for i := range h.rules {
		st := &h.states[i]
		rs := RuleStatus{
			Name:       h.rules[i].name,
			Severity:   h.rules[i].severity.String(),
			Firing:     st.firing.Load(),
			Value:      math.Float64frombits(st.value.Load()),
			Threshold:  h.rules[i].threshold,
			FiredTotal: st.firedTotal.Load(),
		}
		if rs.Firing {
			rs.SinceNs = st.sinceNs.Load()
			if firing != "" {
				firing += ","
			}
			firing += rs.Name
		}
		s.Rules = append(s.Rules, rs)
	}
	s.Firing = firing
	return s
}
