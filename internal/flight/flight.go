// Package flight is the in-process health engine: every Interval it
// samples the inputs its rules read, keeps the previous sample (for
// rates) and a sliding window of per-command latency buckets (for the
// windowed p99), and classifies the process as ok, degraded or critical.
//
// The process that owns the signals passes them in as function values
// (Inputs), so the recorder samples exactly what its rules read and
// nothing else. A tick allocates nothing.
package flight

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Defaults used when the corresponding Config field is zero.
const (
	DefaultInterval = 250 * time.Millisecond

	// p99Window is how much wall-clock history the sliding-window
	// quantiles (and the burn-rate rule) integrate over.
	p99Window = 10 * time.Second
)

// Config parameterizes a Recorder.
type Config struct {
	// Interval is the sampling period (default 250ms).
	Interval time.Duration
	// SLOP99 is the per-command server-side p99 objective. When set,
	// the slo_p99_burn rule fires while the sliding-window p99 of any
	// command exceeds it. Zero disables the rule.
	SLOP99 time.Duration
	// SLOOps is the throughput floor in requests/s. When set, the
	// slo_ops rule fires while the served rate stays below it. Zero
	// disables the rule.
	SLOOps float64
	// FireTicks/ClearTicks override the rule hysteresis: a rule fires
	// after FireTicks consecutive bad ticks and clears after ClearTicks
	// consecutive good ones (defaults 8/8; internal/e2e's health wiring
	// test shrinks them to keep its provocations fast).
	FireTicks  int
	ClearTicks int
}

func (c *Config) fill() {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.FireTicks <= 0 {
		c.FireTicks = 8
	}
	if c.ClearTicks <= 0 {
		c.ClearTicks = 8
	}
}

// Inputs are the signals the rules read, supplied by the process that
// owns them. A rule whose input is nil stays in the catalogue but never
// fires. Every function is called from the tick goroutine only.
type Inputs struct {
	// Shards is how many reclamation universes Backlog and Frozen cover.
	Shards int
	// Backlog returns shard i's retired-but-unrecycled slots
	// (backlog_growth).
	Backlog func(i int) uint64
	// Frozen reports whether shard i's retire pool is mid phase swap
	// (phase_stalled).
	Frozen func(i int) bool
	// Ring returns the deepest executor ring's queued requests and the
	// per-ring bound (ring_saturation).
	Ring func() (depth, capacity int)
	// Requests returns the requests read so far (slo_ops).
	Requests func() uint64
	// Commands is how many command histograms Latency covers.
	Commands int
	// Latency returns command c's cumulative server-side latency
	// histogram (slo_p99_burn).
	Latency func(c int) obs.Snapshot
}

// window slides one command's per-tick latency deltas over p99Window.
// Only Counts and Count of its snapshots are used.
type window struct {
	prev  obs.Snapshot   // cumulative snapshot at the previous tick
	ticks []obs.Snapshot // per-tick deltas, a ring
	pos   int
	sum   obs.Snapshot // the ring's total
}

// push adds the delta from the previous cumulative snapshot to cur,
// evicting the oldest tick, and returns the window's p99 in ns.
func (w *window) push(cur *obs.Snapshot) uint64 {
	old := &w.ticks[w.pos]
	w.sum.Count -= old.Count
	old.Count = 0
	if cur.Count >= w.prev.Count {
		old.Count = cur.Count - w.prev.Count
	}
	w.sum.Count += old.Count
	for b := range cur.Counts {
		w.sum.Counts[b] -= old.Counts[b]
		old.Counts[b] = 0
		if cur.Counts[b] >= w.prev.Counts[b] {
			old.Counts[b] = cur.Counts[b] - w.prev.Counts[b]
		}
		w.sum.Counts[b] += old.Counts[b]
	}
	w.prev = *cur
	w.pos = (w.pos + 1) % len(w.ticks)
	return w.sum.QuantileNs(0.99)
}

// Recorder runs the health rules over its Inputs. Tick is single-writer:
// either the Start goroutine or a test calls it, never both.
type Recorder struct {
	in  Inputs
	cfg Config

	lastTS int64 // unix ns of the previous tick (0 before the first)
	health *health
	tracer *trace.Recorder

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// New builds a recorder over in. Call RegisterObs to export the health
// metrics and /healthz, then Start to begin sampling.
func New(in Inputs, cfg Config) *Recorder {
	cfg.fill()
	r := &Recorder{
		in:     in,
		cfg:    cfg,
		tracer: trace.NewRecorder(1, 64),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	r.health = newHealth(r)
	return r
}

// Tracer exposes the recorder's trace ring (EvHealth transitions) so
// callers without a registry can inspect it.
func (r *Recorder) Tracer() *trace.Recorder { return r.tracer }

// Start launches the sampling goroutine. Safe to call once.
func (r *Recorder) Start() {
	go func() {
		defer close(r.done)
		r.Tick() // baseline: the rates need a previous sample
		tk := time.NewTicker(r.cfg.Interval)
		defer tk.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tk.C:
				r.Tick()
			}
		}
	}()
}

// Stop halts the sampling goroutine and waits for it to exit.
func (r *Recorder) Stop() {
	r.once.Do(func() { close(r.stop) })
	<-r.done
}

// Tick takes one sample and runs the rules over it. On the first tick
// there is no previous sample: the rules record their levels but no
// rate, and no streak moves. Zero allocations.
func (r *Recorder) Tick() {
	now := time.Now().UnixNano()
	dt := 0.0 // seconds since the previous tick; 0 = none
	if r.lastTS != 0 {
		if dt = float64(now-r.lastTS) / 1e9; dt <= 0 {
			dt = r.cfg.Interval.Seconds()
		}
	}
	r.health.eval(dt)
	r.lastTS = now
}
