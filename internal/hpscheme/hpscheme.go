// Package hpscheme implements Michael's hazard pointers scheme (IEEE TPDS
// 2004), the primary competitor measured by the paper (§6, "Related Work").
//
// Protocol per shared read of a node pointer:
//
//  1. read the pointer,
//  2. publish it in one of the thread's hazard pointers (the atomic store
//     doubles as the memory fence the paper charges HP for),
//  3. validate by re-reading the source; if it changed, retry or restart.
//
// A node may be reclaimed only when no thread's hazard pointer refers to
// it. Each thread buffers retired slots locally and, after ScanThreshold
// retires, scans all hazard pointers and frees the unprotected ones
// (Michael's "scan" with amortized O(1) work per retire).
//
// Unlike the optimistic access scheme, every traversal hop pays the
// publish + fence + validate sequence — this is the overhead Figure 1
// shows as 2x-5x on pointer-chasing structures.
package hpscheme

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
	// Capacity pre-charges the shared pool (the structure's steady size
	// plus slack).
	Capacity int
	// HPsPerThread is the number of hazard pointers each thread may
	// publish simultaneously (data-structure dependent: 3 for the linked
	// list, 2·MAXLEVEL+3 for the skip list, §5).
	HPsPerThread int
	// ScanThreshold is Michael's R: a thread scans after this many local
	// retires. The paper's Figure 3 sets it to δ/threads.
	ScanThreshold int
	// LocalPool is the allocation block-transfer size.
	LocalPool int
}

func (c *Config) fill() {
	if c.MaxThreads <= 0 {
		c.MaxThreads = 1
	}
	if c.HPsPerThread <= 0 {
		c.HPsPerThread = 3
	}
	if c.ScanThreshold <= 0 {
		// Michael's guidance: R > H = threads · HPs, with headroom.
		c.ScanThreshold = 2*c.MaxThreads*c.HPsPerThread + 64
	}
}

// Manager owns the pool and thread contexts of one hazard-pointers
// instance.
type Manager[T any] struct {
	cfg     Config
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
		t := &Thread[T]{
			mgr:     m,
			id:      i,
			hps:     make([]atomic.Uint64, cfg.HPsPerThread),
			retired: make([]uint32, 0, cfg.ScanThreshold+8),
			view:    m.pool.Arena().View(),
			ring:    m.tracer.Ring(i),
		}
		t.local.Trace = t.ring
		m.threads[i] = t
	}
	return m
}

// TraceRecorder exposes the per-thread protocol event rings (validation
// restarts, scan passes, allocation refills).
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
		s.Add(smr.Stats{
			Allocs:    t.allocs.Load(),
			Retires:   t.retires.Load(),
			Recycled:  t.recycled.Load(),
			ReRetired: t.reRetired.Load(),
			Phases:    t.scans.Load(),
			Restarts:  t.restarts.Load(),
		})
	}
	return s
}

// Thread is a per-thread hazard-pointer context; single goroutine at a
// time, hazard pointers read concurrently by scanners.
type Thread[T any] struct {
	mgr     *Manager[T]
	id      int
	hps     []atomic.Uint64 // slot+1; 0 = empty
	retired []uint32        // local retired list awaiting scan
	local   alloc.Local
	view    arena.View[T] // Node's lookup: the flat region, else the directory
	scratch smr.SlotSet   // reused sorted hazard-pointer snapshot
	ring    *trace.Ring   // protocol event ring (gated on trace.Enabled)

	// Counters are atomic so Stats may aggregate them live (monitoring
	// endpoints, harness snapshots) without stopping the owner thread.
	allocs    atomic.Uint64
	retires   atomic.Uint64
	recycled  atomic.Uint64
	reRetired atomic.Uint64
	scans     atomic.Uint64
	restarts  atomic.Uint64

	_ [4]uint64 // false-sharing pad
}

// ID returns the thread index.
func (t *Thread[T]) ID() int { return t.id }

// Node dereferences a slot handle. Under hazard pointers a dereference is
// only legal while the slot is protected and validated. The lookup goes
// through the thread's view, as under every scheme.
func (t *Thread[T]) Node(slot uint32) *T { return t.view.At(slot) }

// View exposes the thread's node view, for structure code written
// once against the concrete view instead of a scheme's thread type.
func (t *Thread[T]) View() *arena.View[T] { return &t.view }

// Protect publishes hazard pointer i on p (unmarked automatically). The
// sequentially consistent store is the fence; the caller must validate by
// re-reading the pointer's source afterwards.
func (t *Thread[T]) Protect(i int, p arena.Ptr) {
	if p.IsNil() {
		t.hps[i].Store(0)
		return
	}
	t.hps[i].Store(uint64(p.Unmark().Slot()) + 1)
}

// Clear resets hazard pointer i.
func (t *Thread[T]) Clear(i int) { t.hps[i].Store(0) }

// ClearAll resets every hazard pointer of the thread (end of operation).
func (t *Thread[T]) ClearAll() {
	for i := range t.hps {
		t.hps[i].Store(0)
	}
}

// CountRestart bumps the restart counter (validation failures that force a
// traversal restart are accounted by the data structure through this).
func (t *Thread[T]) CountRestart() {
	t.restarts.Add(1)
	if trace.Enabled() {
		t.ring.Record(trace.EvRestart, uint64(trace.CauseValidate))
	}
}

// Alloc returns a zeroed slot from the shared pool.
func (t *Thread[T]) Alloc() uint32 {
	t.allocs.Add(1)
	return t.mgr.pool.Alloc(&t.local)
}

// Retire buffers an unlinked slot; when ScanThreshold slots accumulate it
// runs Michael's scan.
func (t *Thread[T]) Retire(slot uint32) {
	t.retires.Add(1)
	t.retired = append(t.retired, slot)
	if len(t.retired) >= t.mgr.cfg.ScanThreshold {
		t.Scan()
	}
}

// Scan frees every locally retired slot not currently protected by any
// thread's hazard pointer; protected slots stay buffered for the next
// scan. Per Michael's paper the snapshot is a sorted array probed by
// binary search — with ScanThreshold retired slots per pass, hashing each
// probe into a map dominates the scan, sorting threads·HPs words does not.
func (t *Thread[T]) Scan() {
	t.scans.Add(1)
	hp := &t.scratch
	hp.Reset()
	for _, other := range t.mgr.threads {
		for i := range other.hps {
			if w := other.hps[i].Load(); w != 0 {
				hp.Add(uint32(w - 1))
			}
		}
	}
	hp.Seal()
	kept := t.retired[:0]
	var recycled, reRetired uint64
	for _, slot := range t.retired {
		if hp.Contains(slot) {
			kept = append(kept, slot)
			reRetired++
		} else {
			t.mgr.pool.Free(&t.local, slot)
			recycled++
		}
	}
	t.recycled.Add(recycled)
	t.reRetired.Add(reRetired)
	t.retired = kept
	t.mgr.pool.Flush(&t.local)
	if trace.Enabled() {
		t.ring.Record(trace.EvDrain, trace.DrainPayload(recycled, reRetired))
	}
}

// RetiredLocally reports how many slots wait in the local retired list —
// the space overhead HP bounds at threads · ScanThreshold.
func (t *Thread[T]) RetiredLocally() int { return len(t.retired) }
