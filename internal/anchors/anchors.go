// Package anchors implements the cost model of the "drop the anchor"
// reclamation scheme (Braginsky, Kogan & Petrank, SPAA 2013), the third
// competitor of the paper's linked-list evaluation.
//
// The real anchors scheme publishes a hazard pointer (the anchor) once per
// K reads and recovers stalled traversals by freezing the anchored list
// segment. The freeze/recovery machinery is a full project of its own; as
// announced in DESIGN.md, this package reproduces the scheme's *measured
// cost structure* with a simpler safety argument:
//
//   - Traversals publish an anchor (one atomic store, which is the fence
//     the scheme amortizes) every K node visits, and validate the anchor
//     after publication, restarting the traversal from the head if the
//     anchored node was already marked — the analogue of anchor recovery.
//   - The reclaimer refuses to free a node that is (a) within K successor
//     hops of any published anchor (walking current next pointers through
//     the retired snapshot), or (b) retired during any still-running
//     operation (an era condition equivalent to epoch-based reclamation's
//     grace period — this replaces freezing as the safety net for nodes
//     that were physically unlinked off an anchored path).
//
// Consequence of (b): unlike the original, this variant's *reclamation*
// stalls if a thread stalls (the data-structure operations remain
// lock-free). The paper's benchmarks never stall threads, so the measured
// shape — amortized fences that win on long traversals and recovery
// restarts plus scan cost that lose under contention and short lists — is
// preserved. Scans are serialized by a try-lock; threads that fail the
// try-lock keep buffering, so operations never block.
package anchors

import (
	"sync"
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
	// K is the anchor distance: one anchor publication (fence) per K node
	// visits. The paper picks K = 1000.
	K int
	// ScanThreshold triggers a reclamation scan after this many retires
	// buffered by a thread.
	ScanThreshold int
	// LocalPool is the allocation block-transfer size.
	LocalPool int
}

func (c *Config) fill() {
	if c.MaxThreads <= 0 {
		c.MaxThreads = 1
	}
	if c.K <= 0 {
		c.K = 1000
	}
	if c.ScanThreshold <= 0 {
		c.ScanThreshold = 256
	}
}

// Succ is supplied by the data structure: it returns the current successor
// handle of slot (marks preserved), so the reclaimer can walk anchored
// segments.
type Succ func(slot uint32) arena.Ptr

// Manager owns the pool, era clock and thread contexts of one anchors
// instance.
type Manager[T any] struct {
	cfg     Config
	pool    *alloc.Pool[T]
	era     atomic.Uint64
	threads []*Thread[T]
	succ    Succ
	tracer  *trace.Recorder
	scanMu  sync.Mutex

	// retired entries owned by the scan lock holder.
	retired []retiredSlot
	retMu   sync.Mutex // guards handoff of thread buffers into retired

	// protected is the reclaimer's reusable sorted anchored-segment set;
	// only the scanMu holder touches it.
	protected smr.SlotSet
}

type retiredSlot struct {
	slot uint32
	era  uint64
}

// NewManager builds a manager; reset zeroes a node at allocation, succ
// exposes the structure's successor relation to the reclaimer.
func NewManager[T any](cfg Config, reset func(*T), succ Succ) *Manager[T] {
	cfg.fill()
	m := &Manager[T]{
		cfg:    cfg,
		pool:   alloc.New(cfg.Capacity, cfg.LocalPool, reset),
		succ:   succ,
		tracer: trace.NewRecorder(cfg.MaxThreads, 0),
	}
	m.threads = make([]*Thread[T], cfg.MaxThreads)
	for i := range m.threads {
		t := &Thread[T]{mgr: m, id: i, view: m.pool.Arena().View(), visits: visits{k: cfg.K, ring: m.tracer.Ring(i)}}
		t.local.Trace = t.ring
		m.threads[i] = t
	}
	return m
}

// TraceRecorder exposes the per-thread protocol event rings (era bumps,
// recovery restarts, scan passes, allocation refills).
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

// Thread is a per-thread anchors context.
type Thread[T any] struct {
	mgr *Manager[T]
	id  int
	visits

	// state packs {era:63 | active:1}.
	state atomic.Uint64

	buf   []retiredSlot
	local alloc.Local
	view  arena.View[T] // chunk-directory snapshot: atomic-free Node

	// Counters are atomic so Stats may aggregate them live (monitoring
	// endpoints, harness snapshots) without stopping the owner thread.
	allocs    atomic.Uint64
	retires   atomic.Uint64
	recycled  atomic.Uint64
	reRetired atomic.Uint64
	scans     atomic.Uint64

	_ [4]uint64 // false-sharing pad
}

// visits is the part of a thread a traversal touches on every node visit.
// It is not generic, so a generic caller's call to Visit passes no
// generics dictionary; that keeps the caller's hook within the inliner's
// budget.
type visits struct {
	k, sinceHP int
	anchor     atomic.Uint64 // anchored slot+1; 0 = none
	restarts   atomic.Uint64
	ring       *trace.Ring // protocol event ring (gated on trace.Enabled)
}

// ID returns the thread index.
func (t *Thread[T]) ID() int { return t.id }

// Node dereferences a slot handle. The lookup goes through the thread's
// directory view: two plain loads, no atomics.
func (t *Thread[T]) Node(slot uint32) *T { return t.view.At(slot) }

// View exposes the thread's directory view, for structure code written
// once against the concrete view instead of a scheme's thread type.
func (t *Thread[T]) View() *arena.View[T] { return &t.view }

// OnOpStart announces the current era and resets the anchor budget; the
// first anchor of the traversal is published by the structure on the list
// head.
func (t *Thread[T]) OnOpStart() {
	t.state.Store(t.mgr.era.Load()<<1 | 1)
	t.sinceHP = t.k // force an anchor on the first visit
}

// OnOpEnd clears the anchor and goes quiescent.
func (t *Thread[T]) OnOpEnd() {
	t.anchor.Store(0)
	t.state.Store(t.state.Load() &^ 1)
}

// Visit is called once per traversed node cur, reached through the word
// *src. Every K visits it drops an anchor on cur: one sequentially
// consistent store (the amortized fence). It then validates the anchor: if
// *src no longer leads to cur, Visit counts a restart and returns false,
// and the structure must restart from the head (the recovery analogue).
// The rare anchor drop is out of line.
func (t *visits) Visit(cur arena.Ptr, src *atomic.Uint64) bool {
	t.sinceHP++
	return t.sinceHP < t.k || t.drop(cur, src)
}

func (t *visits) drop(cur arena.Ptr, src *atomic.Uint64) bool {
	t.sinceHP = 0
	if cur.IsNil() {
		t.anchor.Store(0)
		return true
	}
	t.anchor.Store(uint64(cur.Unmark().Slot()) + 1)
	if arena.Ptr(src.Load()).Unmark() == cur.Unmark() {
		return true
	}
	t.CountRestart()
	return false
}

// CountRestart accounts an anchor-validation failure (recovery analogue).
func (t *visits) CountRestart() {
	t.restarts.Add(1)
	if trace.Enabled() {
		t.ring.Record(trace.EvRestart, uint64(trace.CauseAnchor))
	}
}

// Alloc returns a zeroed slot from the shared pool.
func (t *Thread[T]) Alloc() uint32 {
	t.allocs.Add(1)
	return t.mgr.pool.Alloc(&t.local)
}

// Retire buffers slot with the current era and triggers a scan at the
// threshold. If another thread holds the scan lock the buffer simply keeps
// growing — retire never blocks.
func (t *Thread[T]) Retire(slot uint32) {
	t.retires.Add(1)
	t.buf = append(t.buf, retiredSlot{slot: slot, era: t.mgr.era.Load()})
	if len(t.buf) >= t.mgr.cfg.ScanThreshold {
		m := t.mgr
		m.retMu.Lock()
		m.retired = append(m.retired, t.buf...)
		m.retMu.Unlock()
		t.buf = t.buf[:0]
		t.Scan()
	}
}

// Scan runs one reclamation pass if the scan lock is free.
func (t *Thread[T]) Scan() {
	m := t.mgr
	if !m.scanMu.TryLock() {
		return
	}
	defer m.scanMu.Unlock()
	t.scans.Add(1)
	era := m.era.Add(1)
	if trace.Enabled() {
		t.ring.Record(trace.EvPhase, era)
	}

	// Protected set 1: nodes within K hops of any anchor, collected into
	// the reusable sorted set (the batch below probes it once per retired
	// slot, so binary search beats map hashing).
	protected := &m.protected
	protected.Reset()
	for _, other := range m.threads {
		a := other.anchor.Load()
		if a == 0 {
			continue
		}
		p := arena.MakePtr(uint32(a - 1))
		for hop := 0; hop <= m.cfg.K && !p.IsNil(); hop++ {
			protected.Add(p.Unmark().Slot())
			p = m.succ(p.Unmark().Slot())
		}
	}
	protected.Seal()
	// Condition 2: a node is freeable only when retired before every
	// currently running operation's era (grace period).
	minEra := era
	for _, other := range m.threads {
		w := other.state.Load()
		if w&1 == 1 && w>>1 < minEra {
			minEra = w >> 1
		}
	}

	m.retMu.Lock()
	batch := m.retired
	m.retired = nil
	m.retMu.Unlock()

	kept := batch[:0]
	var recycled, reRetired uint64
	for _, r := range batch {
		anchored := protected.Contains(r.slot)
		if !anchored && r.era < minEra {
			m.pool.Free(&t.local, r.slot)
			recycled++
		} else {
			kept = append(kept, r)
			reRetired++
		}
	}
	t.recycled.Add(recycled)
	t.reRetired.Add(reRetired)
	m.pool.Flush(&t.local)
	m.retMu.Lock()
	m.retired = append(m.retired, kept...)
	m.retMu.Unlock()
	if trace.Enabled() {
		t.ring.Record(trace.EvDrain, trace.DrainPayload(recycled, reRetired))
	}
}
