// Package norecl is the paper's NoRecl baseline: allocation from the shared
// object pool, retire as a no-op. It is the throughput denominator of every
// ratio the evaluation reports. Memory grows without bound, which is
// exactly the behaviour the paper ascribes to it ("only applicable to
// short-running programs", §1).
package norecl

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
	// Capacity pre-charges the pool; the arena grows past it as needed.
	Capacity int
	// LocalPool is the allocation block-transfer size.
	LocalPool int
}

// Manager owns the pool and thread contexts.
type Manager[T any] struct {
	cfg     Config
	pool    *alloc.Pool[T]
	threads []*Thread[T]
	tracer  *trace.Recorder
}

// NewManager builds a manager; reset zeroes a node at allocation.
func NewManager[T any](cfg Config, reset func(*T)) *Manager[T] {
	if cfg.MaxThreads <= 0 {
		cfg.MaxThreads = 1
	}
	m := &Manager[T]{
		cfg:    cfg,
		pool:   alloc.New(cfg.Capacity, cfg.LocalPool, reset),
		tracer: trace.NewRecorder(cfg.MaxThreads, 0),
	}
	m.threads = make([]*Thread[T], cfg.MaxThreads)
	for i := range m.threads {
		t := &Thread[T]{mgr: m, id: i, view: m.pool.Arena().View()}
		t.local.Trace = m.tracer.Ring(i)
		m.threads[i] = t
	}
	return m
}

// TraceRecorder exposes the per-thread event rings. NoRecl never
// recycles, so the only events are allocation-pool refills — a useful
// denominator when comparing refill cadence across schemes.
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

// Stats aggregates counters across threads.
func (m *Manager[T]) Stats() smr.Stats {
	var s smr.Stats
	for _, t := range m.threads {
		s.Add(smr.Stats{Allocs: t.allocs.Load(), Retires: t.retires.Load()})
	}
	return s
}

// Leaked reports slots retired but (by design) never recycled.
func (m *Manager[T]) Leaked() uint64 {
	var n uint64
	for _, t := range m.threads {
		n += t.retires.Load()
	}
	return n
}

// Thread is a per-thread NoRecl context.
type Thread[T any] struct {
	mgr   *Manager[T]
	id    int
	local alloc.Local
	view  arena.View[T] // chunk-directory snapshot: atomic-free Node
	// Counters are atomic so Stats may aggregate them live (monitoring
	// endpoints, harness snapshots) without stopping the owner thread.
	allocs  atomic.Uint64
	retires atomic.Uint64

	_ [6]uint64 // false-sharing pad
}

// ID returns the thread index.
func (t *Thread[T]) ID() int { return t.id }

// Node dereferences a slot handle. NoRecl never recycles, so every handle
// stays valid. The lookup goes through the thread's directory view: two
// plain loads, no atomics.
func (t *Thread[T]) Node(slot uint32) *T { return t.view.At(slot) }

// View exposes the thread's directory view, for structure code written
// once against the concrete view instead of a scheme's thread type.
func (t *Thread[T]) View() *arena.View[T] { return &t.view }

// Alloc returns a zeroed slot.
func (t *Thread[T]) Alloc() uint32 {
	t.allocs.Add(1)
	return t.mgr.pool.Alloc(&t.local)
}

// Retire only counts; the slot is never reused.
func (t *Thread[T]) Retire(uint32) { t.retires.Add(1) }
