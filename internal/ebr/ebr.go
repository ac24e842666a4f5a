// Package ebr implements epoch-based reclamation (Harris 2001, Fraser's
// lockfree-lib), the non-lock-free baseline the paper measures as EBR.
//
// Each thread announces the global epoch when an operation starts and goes
// quiescent when it ends. Retired slots are buffered in per-thread limbo
// lists keyed by epoch modulo 3; once every active thread has observed the
// current epoch, the epoch advances and the generation retired two epochs
// ago is freed — no thread can still hold references into it.
//
// The scheme's known weaknesses, which the paper's evaluation exercises,
// are (a) the per-operation announcement write + fence, which dominates on
// the hash table's extremely short operations (Figure 1), and (b) a stalled
// thread freezes the epoch and stops reclamation entirely — it is not
// lock-free (tested in this package).
package ebr

import (
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/arena"
	"repro/internal/obs"
	"repro/internal/smr"
	"repro/internal/trace"
)

// Config parameterizes a Manager.
type Config struct {
	// MaxThreads is the fixed number of thread contexts.
	MaxThreads int
	// Capacity pre-charges the shared pool.
	Capacity int
	// OpsPerScan is the paper's q: a thread attempts an epoch advance and
	// reclamation every q operations (Figure 3 sets q = 10·δ/threads).
	OpsPerScan int
	// LocalPool is the allocation block-transfer size.
	LocalPool int
}

func (c *Config) fill() {
	if c.MaxThreads <= 0 {
		c.MaxThreads = 1
	}
	if c.OpsPerScan <= 0 {
		c.OpsPerScan = 128
	}
}

// Manager owns the global epoch, pool and thread contexts.
type Manager[T any] struct {
	cfg     Config
	epoch   atomic.Uint64
	pool    *alloc.Pool[T]
	threads []*Thread[T]
	tracer  *trace.Recorder
}

// NewManager builds a manager; reset zeroes a node at allocation.
func NewManager[T any](cfg Config, reset func(*T)) *Manager[T] {
	cfg.fill()
	m := &Manager[T]{
		cfg:    cfg,
		pool:   alloc.New(cfg.Capacity, cfg.LocalPool, reset),
		tracer: trace.NewRecorder(cfg.MaxThreads, 0),
	}
	m.threads = make([]*Thread[T], cfg.MaxThreads)
	for i := range m.threads {
		t := &Thread[T]{mgr: m, id: i, view: m.pool.Arena().View(), ring: m.tracer.Ring(i)}
		t.local.Trace = t.ring
		m.threads[i] = t
	}
	return m
}

// TraceRecorder exposes the per-thread protocol event rings (epoch
// advances, limbo reclaim passes, allocation refills).
func (m *Manager[T]) TraceRecorder() *trace.Recorder { return m.tracer }

// RegisterObs implements obs.Registrar: the scheme's only deep source is
// its event trace (counters flow through smr.Stats).
func (m *Manager[T]) RegisterObs(reg *obs.Registry) { reg.Trace(m.tracer) }

// Arena exposes node storage.
func (m *Manager[T]) Arena() *arena.Arena[T] { return m.pool.Arena() }

// Thread returns thread context id.
func (m *Manager[T]) Thread(id int) *Thread[T] { return m.threads[id] }

// MaxThreads returns the configured thread count.
func (m *Manager[T]) MaxThreads() int { return m.cfg.MaxThreads }

// Epoch returns the global epoch (for tests and stats).
func (m *Manager[T]) Epoch() uint64 { return m.epoch.Load() }

// Stats aggregates counters across threads.
func (m *Manager[T]) Stats() smr.Stats {
	var s smr.Stats
	for _, t := range m.threads {
		s.Add(smr.Stats{
			Allocs:   t.allocs.Load(),
			Retires:  t.retires.Load(),
			Recycled: t.recycled.Load(),
		})
	}
	s.Phases = m.Epoch()
	return s
}

// tryAdvance bumps the global epoch if every active thread has announced
// the current one. Returns the (possibly new) epoch.
func (m *Manager[T]) tryAdvance() uint64 {
	e := m.epoch.Load()
	for _, t := range m.threads {
		w := t.state.Load()
		if w&1 == 1 && w>>1 != e {
			return e // an active thread lags: cannot advance
		}
	}
	m.epoch.CompareAndSwap(e, e+1)
	return m.epoch.Load()
}

// Thread is a per-thread EBR context.
type Thread[T any] struct {
	mgr *Manager[T]
	id  int
	// state packs {epoch:63 | active:1}; written by the owner at operation
	// boundaries, read by epoch advancers.
	state atomic.Uint64
	limbo [3][]uint32 // retired slots by epoch % 3
	local alloc.Local
	view  arena.View[T] // Node's lookup: the flat region, else the directory
	ring  *trace.Ring   // protocol event ring (gated on trace.Enabled)
	ops   int

	// Counters are atomic so Stats may aggregate them live (monitoring
	// endpoints, harness snapshots) without stopping the owner thread.
	allocs   atomic.Uint64
	retires  atomic.Uint64
	recycled atomic.Uint64

	_ [5]uint64 // false-sharing pad
}

// ID returns the thread index.
func (t *Thread[T]) ID() int { return t.id }

// Node dereferences a slot handle; legal only between OnOpStart/OnOpEnd for
// slots that were reachable when the operation started. The lookup goes
// through the thread's view, as under every scheme.
func (t *Thread[T]) Node(slot uint32) *T { return t.view.At(slot) }

// View exposes the thread's node view, for structure code written
// once against the concrete view instead of a scheme's thread type.
func (t *Thread[T]) View() *arena.View[T] { return &t.view }

// OnOpStart announces the current epoch and marks the thread active. Every
// data-structure operation must be bracketed by OnOpStart/OnOpEnd; the
// announcement's atomic store is the fence the paper charges EBR per
// operation.
func (t *Thread[T]) OnOpStart() {
	e := t.mgr.epoch.Load()
	t.state.Store(e<<1 | 1)
}

// OnOpEnd marks the thread quiescent and periodically attempts an epoch
// advance plus reclamation of the safe limbo generation.
func (t *Thread[T]) OnOpEnd() {
	t.state.Store(t.state.Load() &^ 1)
	t.ops++
	if t.ops >= t.mgr.cfg.OpsPerScan {
		t.ops = 0
		t.reclaim()
	}
}

// Retire buffers slot in the limbo generation of the current global
// epoch. Not the thread's announced epoch: the global one may have moved
// past it while the operation ran, and an operation announced at the
// newer epoch may have reached the slot before it was unlinked. Tagged
// one epoch low, the slot would be freed as soon as that reader's epoch
// is current, while the reader still runs.
func (t *Thread[T]) Retire(slot uint32) {
	t.retires.Add(1)
	e := t.mgr.epoch.Load()
	t.limbo[e%3] = append(t.limbo[e%3], slot)
}

// Alloc returns a zeroed slot from the shared pool.
func (t *Thread[T]) Alloc() uint32 {
	t.allocs.Add(1)
	return t.mgr.pool.Alloc(&t.local)
}

// reclaim advances the epoch if possible and frees the generation retired
// two epochs ago: with epoch e current, generation (e+1)%3 ≡ e-2 is safe.
func (t *Thread[T]) reclaim() {
	before := t.mgr.epoch.Load()
	e := t.mgr.tryAdvance()
	if trace.Enabled() && e != before {
		// Attribute the advance to the thread whose reclaim drove it
		// (approximate under concurrent advancers, like the counters).
		t.ring.Record(trace.EvPhase, e)
	}
	g := (e + 1) % 3
	if len(t.limbo[g]) == 0 {
		return
	}
	n := uint64(len(t.limbo[g]))
	for _, slot := range t.limbo[g] {
		t.mgr.pool.Free(&t.local, slot)
	}
	t.recycled.Add(n)
	t.limbo[g] = t.limbo[g][:0]
	t.mgr.pool.Flush(&t.local)
	if trace.Enabled() {
		t.ring.Record(trace.EvDrain, trace.DrainPayload(n, 0))
	}
}

// LimboSize reports how many slots wait in the thread's limbo lists — the
// unbounded leak a stalled thread causes under EBR.
func (t *Thread[T]) LimboSize() int {
	return len(t.limbo[0]) + len(t.limbo[1]) + len(t.limbo[2])
}
