// Package flight is an in-process flight recorder: it samples every
// scalar metric and histogram family registered on an obs.Registry at a
// fixed interval into per-series ring buffers, derives windowed signals
// (backlog growth rate, phase cadence, ring saturation, sliding-window
// per-command p99) and feeds a declarative health-rule engine that
// classifies the process as ok, degraded or critical.
//
// The design mirrors the server slowlog: each tick publishes one frame
// under a seqlock (seq odd while the recorder writes, even once
// published) so concurrent /debug/history readers skip torn frames
// instead of locking the sampler. A tick allocates nothing once the
// sample plan is warm; the plan is rebuilt only when the registry's
// registration generation moves (late registrations reset history).
package flight

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Defaults used when the corresponding Config field is zero.
const (
	DefaultInterval = 250 * time.Millisecond
	DefaultWindow   = 60 * time.Second

	// p99Window is how much wall-clock history the sliding-window
	// quantiles (and the burn-rate rule) integrate over.
	p99Window = 10 * time.Second
)

// Config parameterizes a Recorder.
type Config struct {
	// Interval is the sampling period (default 250ms).
	Interval time.Duration
	// Window is how much history the rings retain (default 60s).
	Window time.Duration
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
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.FireTicks <= 0 {
		c.FireTicks = 8
	}
	if c.ClearTicks <= 0 {
		c.ClearTicks = 8
	}
}

// Names of the derived series a Recorder appends after the registry's
// own scalars. Histogram families additionally surface as
// "flight:win_p99_ns:<family>".
const (
	SeriesBacklogGrowth  = "flight:backlog_growth_per_sec"
	SeriesPhaseCadence   = "flight:phase_per_sec"
	SeriesRingDepthMax   = "flight:ring_depth_max"
	SeriesRingSaturation = "flight:ring_saturation"
	SeriesOpsPerSec      = "flight:ops_per_sec"
)

// WinP99Prefix prefixes the sliding-window p99 series derived from each
// histogram family.
const WinP99Prefix = "flight:win_p99_ns:"

// Scalar metric names the derived signals and health rules key on.
const (
	metricBacklog = "oa_retired_backlog_slots"
	metricPhase   = "oa_phase"
	metricFrozen  = "oa_retire_pool_frozen"
	metricRingCap = "oa_server_ring_cap"
	metricReqRead = "oa_server_requests_read_total"
	ringDepthVec  = "oa_server_ring_depth{"
	cmdLatencyPfx = "oa_server_latency_"
)

// frame is one published tick: a seqlock word, the sample timestamp and
// one float64 (as bits) per series.
type frame struct {
	seq  atomic.Uint64
	ts   atomic.Int64
	vals []atomic.Uint64
}

// histTrack maintains the sliding bucket-delta window for one histogram
// family (all shard instances merged).
type histTrack struct {
	family    string
	hs        []*metrics.Histogram
	prev      []metrics.Snapshot
	win       [][metrics.Buckets]uint64 // per-tick deltas, ring
	winCounts []uint64
	wpos      int
	wfill     int
	sum       [metrics.Buckets]uint64
	sumCount  uint64
	seriesIdx int  // slot in the frame for the windowed p99
	cmdLat    bool // belongs to the per-command server latency families
}

// plan binds the recorder to one registration generation: the resolved
// sample closures, derived-series indices and a fresh frame ring.
type plan struct {
	gen     uint64
	names   []string
	scalars []func() float64 // samples names[0:len(scalars)]
	hists   []*histTrack

	// Resolved indices into the scalar prefix (-1 when absent).
	backlogIdx, phaseIdx, frozenIdx, ringCapIdx, opsIdx int
	depthIdxs                                           []int
	// Indices of the derived slots.
	dBacklog, dPhase, dDepthMax, dSat, dOps int

	frames []frame
	mask   uint64
	head   atomic.Uint64 // frames ever published (next ticket)
}

// Recorder samples one registry. Tick is single-writer: either the
// Start goroutine or a test calls it, never both.
type Recorder struct {
	reg *obs.Registry
	cfg Config

	mu   sync.Mutex // guards rebuild vs. concurrent plan readers
	plan atomic.Pointer[plan]

	cur, prev []float64 // scratch, len == len(plan.names)
	lastTS    int64     // unix ns of the previous tick (0 before first)
	ticks     atomic.Uint64

	health *health
	tracer *trace.Recorder

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// New builds a recorder over reg. Call RegisterObs to export the health
// metrics and debug endpoints, then Start to begin sampling.
func New(reg *obs.Registry, cfg Config) *Recorder {
	cfg.fill()
	r := &Recorder{
		reg:    reg,
		cfg:    cfg,
		tracer: trace.NewRecorder(1, 64),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	r.health = newHealth(r)
	return r
}

// Interval returns the sampling period.
func (r *Recorder) Interval() time.Duration { return r.cfg.Interval }

// Window returns the retention window.
func (r *Recorder) Window() time.Duration { return r.cfg.Window }

// Ticks returns how many samples the recorder has taken.
func (r *Recorder) Ticks() uint64 { return r.ticks.Load() }

// Tracer exposes the recorder's trace ring (EvHealth transitions) so
// callers without a registry can inspect it.
func (r *Recorder) Tracer() *trace.Recorder { return r.tracer }

// Start launches the sampling goroutine. Safe to call once.
func (r *Recorder) Start() {
	go func() {
		defer close(r.done)
		r.Tick() // baseline: publish the plan before the first interval elapses
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

// frameCount sizes the ring: Window/Interval rounded up to a power of
// two, at least 16.
func (r *Recorder) frameCount() int {
	n := int(r.cfg.Window / r.cfg.Interval)
	if n < 16 {
		n = 16
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// rebuild constructs a fresh plan from the registry's current sources.
// History resets: frames from the old generation describe a different
// column set.
func (r *Recorder) rebuild(gen uint64) *plan {
	ss, hs := r.reg.Sources()
	p := &plan{
		gen:        gen,
		backlogIdx: -1, phaseIdx: -1, frozenIdx: -1, ringCapIdx: -1, opsIdx: -1,
	}
	for _, s := range ss {
		p.names = append(p.names, s.Name)
		p.scalars = append(p.scalars, s.Sample)
	}
	for i, n := range p.names {
		switch n {
		case metricBacklog:
			p.backlogIdx = i
		case metricPhase:
			p.phaseIdx = i
		case metricFrozen:
			p.frozenIdx = i
		case metricRingCap:
			p.ringCapIdx = i
		case metricReqRead:
			p.opsIdx = i
		}
		if strings.HasPrefix(n, ringDepthVec) {
			p.depthIdxs = append(p.depthIdxs, i)
		}
	}
	derive := func(name string) int {
		p.names = append(p.names, name)
		return len(p.names) - 1
	}
	p.dBacklog = derive(SeriesBacklogGrowth)
	p.dPhase = derive(SeriesPhaseCadence)
	p.dDepthMax = derive(SeriesRingDepthMax)
	p.dSat = derive(SeriesRingSaturation)
	p.dOps = derive(SeriesOpsPerSec)

	// Group histogram instances by family and give each family a
	// sliding-window p99 series.
	winTicks := int(p99Window / r.cfg.Interval)
	if winTicks < 4 {
		winTicks = 4
	}
	byFamily := map[string]*histTrack{}
	for _, h := range hs {
		ht := byFamily[h.Family]
		if ht == nil {
			ht = &histTrack{
				family:    h.Family,
				win:       make([][metrics.Buckets]uint64, winTicks),
				winCounts: make([]uint64, winTicks),
				seriesIdx: derive(WinP99Prefix + h.Family),
				cmdLat:    strings.HasPrefix(h.Family, cmdLatencyPfx),
			}
			byFamily[h.Family] = ht
			p.hists = append(p.hists, ht)
		}
		ht.hs = append(ht.hs, h.Hist)
		ht.prev = append(ht.prev, metrics.Snapshot{})
	}

	n := r.frameCount()
	p.frames = make([]frame, n)
	p.mask = uint64(n - 1)
	for i := range p.frames {
		p.frames[i].vals = make([]atomic.Uint64, len(p.names))
	}
	return p
}

// Tick takes one sample: refresh the plan if registrations moved,
// sample every scalar, advance the histogram windows, compute derived
// signals, publish the frame and run the health rules. Zero allocations
// once the plan is warm.
func (r *Recorder) Tick() {
	gen := r.reg.Generation()
	p := r.plan.Load()
	if p == nil || p.gen != gen {
		r.mu.Lock()
		p = r.plan.Load()
		if p == nil || p.gen != gen {
			p = r.rebuild(gen)
			r.cur = make([]float64, len(p.names))
			r.prev = make([]float64, len(p.names))
			r.lastTS = 0
			r.plan.Store(p)
		}
		r.mu.Unlock()
	}

	now := time.Now().UnixNano()
	first := r.lastTS == 0
	dt := float64(now-r.lastTS) / 1e9
	if dt <= 0 {
		dt = float64(r.cfg.Interval) / 1e9
	}

	cur := r.cur
	for i, fn := range p.scalars {
		cur[i] = fn()
	}

	// Histogram family windows: per-tick bucket deltas summed across
	// instances, slid over winTicks ticks.
	for _, ht := range p.hists {
		var tickDelta [metrics.Buckets]uint64
		var tickCount uint64
		for i, h := range ht.hs {
			snap := h.Snapshot()
			pv := &ht.prev[i]
			for b := 0; b < metrics.Buckets; b++ {
				if d := snap.Counts[b] - pv.Counts[b]; snap.Counts[b] >= pv.Counts[b] {
					tickDelta[b] += d
				}
			}
			if snap.Count >= pv.Count {
				tickCount += snap.Count - pv.Count
			}
			ht.prev[i] = snap
		}
		if ht.wfill == len(ht.win) {
			old := &ht.win[ht.wpos]
			for b := 0; b < metrics.Buckets; b++ {
				ht.sum[b] -= old[b]
			}
			ht.sumCount -= ht.winCounts[ht.wpos]
		} else {
			ht.wfill++
		}
		ht.win[ht.wpos] = tickDelta
		ht.winCounts[ht.wpos] = tickCount
		for b := 0; b < metrics.Buckets; b++ {
			ht.sum[b] += tickDelta[b]
		}
		ht.sumCount += tickCount
		ht.wpos = (ht.wpos + 1) % len(ht.win)
		cur[ht.seriesIdx] = float64(windowQuantileNs(&ht.sum, ht.sumCount, 0.99))
	}

	// Derived signals need a previous tick; the first tick leaves them 0.
	cur[p.dBacklog], cur[p.dPhase], cur[p.dOps] = 0, 0, 0
	if !first {
		if p.backlogIdx >= 0 {
			cur[p.dBacklog] = (cur[p.backlogIdx] - r.prev[p.backlogIdx]) / dt
		}
		if p.phaseIdx >= 0 {
			cur[p.dPhase] = (cur[p.phaseIdx] - r.prev[p.phaseIdx]) / dt
		}
		if p.opsIdx >= 0 {
			cur[p.dOps] = (cur[p.opsIdx] - r.prev[p.opsIdx]) / dt
		}
	}
	depthMax := 0.0
	for _, i := range p.depthIdxs {
		if cur[i] > depthMax {
			depthMax = cur[i]
		}
	}
	cur[p.dDepthMax] = depthMax
	cur[p.dSat] = 0
	if p.ringCapIdx >= 0 && cur[p.ringCapIdx] > 0 {
		cur[p.dSat] = depthMax / cur[p.ringCapIdx]
	}

	// Publish the frame under the seqlock: odd while writing, 2t+2 once
	// ticket t's payload is complete.
	t := p.head.Load()
	f := &p.frames[t&p.mask]
	f.seq.Store(2*t + 1)
	f.ts.Store(now)
	for i, v := range cur {
		f.vals[i].Store(math.Float64bits(v))
	}
	f.seq.Store(2*t + 2)
	p.head.Store(t + 1)

	r.health.eval(p, cur, r.prev, dt, first)

	copy(r.prev, cur)
	r.lastTS = now
	r.ticks.Add(1)
}

// windowQuantileNs mirrors metrics.Snapshot.QuantileNs over a window's
// summed bucket counts: an upper bound using each bucket's top edge.
func windowQuantileNs(counts *[metrics.Buckets]uint64, total uint64, q float64) uint64 {
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var acc uint64
	for i := 0; i < metrics.Buckets; i++ {
		acc += counts[i]
		if acc >= target {
			return uint64(1)<<uint(i) - 1
		}
	}
	return 0
}

// Frame is one decoded history sample.
type Frame struct {
	TS   int64 // unix nanoseconds
	Vals []float64
}

// SeriesNames returns the current plan's column names (registry scalars
// first, then derived series). Nil before the first tick.
func (r *Recorder) SeriesNames() []string {
	p := r.plan.Load()
	if p == nil {
		return nil
	}
	return p.names
}

// History snapshots up to max frames (0 = all retained), oldest first,
// skipping frames the sampler is overwriting concurrently (the seqlock
// check, as in the slowlog). The returned frames are copies.
func (r *Recorder) History(max int) []Frame {
	p := r.plan.Load()
	if p == nil {
		return nil
	}
	head := p.head.Load()
	n := uint64(len(p.frames))
	lo := uint64(0)
	if head > n {
		lo = head - n
	}
	if max > 0 && head-lo > uint64(max) {
		lo = head - uint64(max)
	}
	out := make([]Frame, 0, head-lo)
	for t := lo; t < head; t++ {
		f := &p.frames[t&p.mask]
		s1 := f.seq.Load()
		if s1 != 2*t+2 {
			continue // torn or already lapped
		}
		fr := Frame{TS: f.ts.Load(), Vals: make([]float64, len(f.vals))}
		for i := range f.vals {
			fr.Vals[i] = math.Float64frombits(f.vals[i].Load())
		}
		if f.seq.Load() != s1 {
			continue // writer lapped us mid-copy
		}
		out = append(out, fr)
	}
	return out
}
