package flight

import (
	"math"
	"sync/atomic"

	"repro/internal/obs"
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

// rule is one declarative health check, evaluated every tick.
type rule struct {
	name      string
	severity  State
	threshold float64
	// active samples the rule's inputs: dt is the seconds since the
	// previous tick (0 on the first). value is what /healthz reports,
	// bad whether this tick violates the rule; ok=false means the input
	// the rule needs is absent (rule disabled).
	active func(dt float64) (value float64, bad, ok bool)
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

// newHealth builds the rule catalogue over the recorder's inputs. Each
// rule owns the state it needs between ticks (the previous backlog per
// shard, the previous request count, the latency windows), allocated
// here so a tick allocates nothing.
func newHealth(r *Recorder) *health {
	in, cfg := r.in, r.cfg
	h := &health{r: r}
	add := func(ru rule) {
		ru.fire, ru.clear = cfg.FireTicks, cfg.ClearTicks
		h.rules = append(h.rules, ru)
	}
	backlog := make([]uint64, in.Shards)
	add(rule{
		name: "backlog_growth", severity: StateDegraded, threshold: 0,
		active: func(dt float64) (float64, bool, bool) {
			if in.Backlog == nil || len(backlog) == 0 {
				return 0, false, false
			}
			// Any shard whose backlog grew and is above the floor makes
			// the tick bad; the value is the fastest growth (slots/s).
			var growth float64
			bad := false
			for i, prev := range backlog {
				cur := in.Backlog(i)
				g := 0.0
				if dt > 0 {
					g = (float64(cur) - float64(prev)) / dt
				}
				if i == 0 || g > growth {
					growth = g
				}
				bad = bad || cur > prev && cur >= backlogFloor
				backlog[i] = cur
			}
			return growth, bad, true
		},
	})
	add(rule{
		name: "ring_saturation", severity: StateDegraded, threshold: satThreshold,
		active: func(float64) (float64, bool, bool) {
			if in.Ring == nil {
				return 0, false, false
			}
			depth, capacity := in.Ring()
			if capacity <= 0 {
				return 0, false, false
			}
			sat := float64(depth) / float64(capacity)
			return sat, sat >= satThreshold, true
		},
	})
	add(rule{
		name: "phase_stalled", severity: StateCritical, threshold: 1,
		active: func(float64) (float64, bool, bool) {
			if in.Frozen == nil || in.Shards == 0 {
				return 0, false, false
			}
			frozen := 0
			for i := 0; i < in.Shards; i++ {
				if in.Frozen(i) {
					frozen++
				}
			}
			return float64(frozen), frozen >= 1, true
		},
	})
	if cfg.SLOP99 > 0 {
		target := float64(cfg.SLOP99.Nanoseconds())
		wins := make([]window, in.Commands)
		for i := range wins {
			wins[i].ticks = make([]obs.Snapshot, max(4, int(p99Window/cfg.Interval)))
		}
		add(rule{
			name: "slo_p99_burn", severity: StateDegraded, threshold: 1,
			active: func(float64) (float64, bool, bool) {
				if in.Latency == nil || len(wins) == 0 {
					return 0, false, false
				}
				var worst uint64
				for c := range wins {
					snap := in.Latency(c)
					worst = max(worst, wins[c].push(&snap))
				}
				burn := float64(worst) / target
				return burn, burn > 1, true
			},
		})
	}
	if cfg.SLOOps > 0 {
		floor := cfg.SLOOps
		var prev uint64
		add(rule{
			name: "slo_ops", severity: StateDegraded, threshold: floor,
			active: func(dt float64) (float64, bool, bool) {
				if in.Requests == nil {
					return 0, false, false
				}
				cur := in.Requests()
				rate := 0.0
				if dt > 0 {
					rate = (float64(cur) - float64(prev)) / dt
				}
				prev = cur
				return rate, rate < floor, true
			},
		})
	}
	h.states = make([]ruleState, len(h.rules))
	return h
}

// eval runs every rule over one tick and folds the firing set into the
// process state, emitting an EvHealth trace event on each transition.
// Tick-goroutine only; allocation-free.
func (h *health) eval(dt float64) {
	for i := range h.rules {
		ru := &h.rules[i]
		st := &h.states[i]
		v, bad, ok := ru.active(dt)
		st.value.Store(math.Float64bits(v))
		if !ok || dt == 0 {
			continue
		}
		if bad {
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
