// Package core implements the paper's contribution: the optimistic access
// (OA) memory management scheme for normalized lock-free data structures
// (Cohen & Petrank, "Efficient Memory Management for Lock-Free Data
// Structures with Optimistic Access", SPAA 2015).
//
// # Scheme summary
//
// Reads of shared node memory run *optimistically*: they may observe a slot
// that was already recycled. Correctness rests on three properties (§2):
//
//  1. Reads never fault — guaranteed here by the handle-based arena
//     (see package arena): a recycled handle still indexes valid memory.
//  2. A stale read is detected immediately after the read: the recycler
//     sets every thread's warning bit before recycling anything, so a
//     thread whose warning bit is clear cannot have read a recycled slot
//     (Algorithm 1).
//  3. Detected stale reads are rolled back by restarting the enclosing
//     normalized method (CAS generator or wrap-up), which is always legal
//     for parallelizable methods.
//
// Writes must never hit recycled memory, so every CAS is guarded by a
// simplified hazard-pointer protocol (Algorithm 2), and the CAS list handed
// from the generator to the executor is pinned by "owner" hazard pointers
// installed at the end of the generator (Algorithm 3).
//
// # Recycling pipeline
//
// Reclamation proceeds in phases (Algorithms 4–6) over three pools, each
// one lock-free stack of 126-slot blocks (see internal/pools): retired
// slots accumulate in the retirePool; a phase starts by moving the whole
// retirePool into the processingPool; slots in the processingPool that no
// hazard pointer protects move to the readyPool for reallocation, and
// protected ones return to the retirePool for the next phase.
//
// The move is Algorithm 6's swap of phase v (even), three CASes on the
// pools' {version, head} words: freeze the retirePool from (v, h) to
// (v+1, h), install h in the processingPool from (v, empty) to (v+2, h),
// and reset the retirePool from (v+1, h) to (v+2, empty). The odd version
// makes the frozen head immutable — pushes at v fail and nothing pops the
// retirePool — so any thread that sees an odd version can finish the swap
// with the same two CASes, and a descheduled initiator blocks no one.
//
// # Deviations from the paper's pseudocode (documented per DESIGN.md)
//
//   - Freeze precondition. Algorithm 6 lets any thread whose local version
//     matches the retirePool initiate a phase swap. If such a thread lagged
//     (caught its version up via the "phase already finished" return) it
//     could start a swap while the current phase's processingPool still
//     holds blocks; the swap's single-CAS installation of the new chain
//     would leak them. We therefore initiate a freeze only after observing
//     the processingPool empty at the current version — otherwise the
//     thread simply participates in the current phase. The normal-path
//     behaviour is identical (a phase ends with the processing pool
//     drained); TestRecyclingNeverLeaks exercises the laggard case.
//   - Leftover re-retire blocks. When a re-retire push hits VER-MISMATCH
//     (Algorithm 6 line 28 returns), the slots in hand are pushed into the
//     retirePool at its *newer* version instead of being dropped — retiring
//     into a later phase is always proper.
//   - Hazard-pointer publication. Three HPs share one word (two words
//     when the capacity exceeds 2²¹−1 slots), a word is stored only when
//     it changes, and HPs stay published after a successful CAS
//     until the next publication overwrites them (restart paths and
//     ReleaseThread clear them). Each atomic store is a full fence, so
//     this cuts the paper's per-barrier fence to the words that change;
//     the safety argument is on Thread.publish and in DESIGN.md §4.
package core

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/pools"
	"repro/internal/smr"
	"repro/internal/trace"
)

// WriteHPs is the number of hazard pointers Algorithm 2 needs: one each for
// the CAS target object, the expected value and the new value.
const WriteHPs = 3

const warnMask = 0xff

// Config parameterizes a Manager.
type Config struct {
	// MaxThreads is the number of thread contexts, fixed at construction.
	MaxThreads int
	// Capacity is the total number of node slots the manager hands out.
	// The paper sizes it as the steady-state structure size plus δ, so a
	// reclamation phase triggers roughly every δ allocations (§5, Fig. 3).
	Capacity int
	// LocalPool bounds the slots per transfer block (the paper's local
	// pool size, 126 by default; Fig. 2 sweeps it).
	LocalPool int
	// OwnerHPs is the number of owner hazard pointers per thread, 3·C for
	// a structure whose operations execute at most C CASes (Algorithm 3).
	// Structures applying the paper's dedup optimization may pass less.
	OwnerHPs int
	// WarningByStore, when true, sets warning bits with a plain store
	// instead of the once-per-phase CAS of Appendix E — an ablation knob
	// that inflates restarts.
	WarningByStore bool
	// AllocSpinLimit bounds the Allocate retry loop; when the pipeline
	// cannot produce a free slot after this many recycling attempts the
	// manager panics with a sizing diagnostic (0 means 1<<22). The paper's
	// algorithm spins forever; a panic is friendlier than a silent hang.
	AllocSpinLimit int
}

func (c *Config) fill() {
	if c.MaxThreads <= 0 {
		c.MaxThreads = 1
	}
	if c.LocalPool <= 0 || c.LocalPool > pools.BlockCap {
		c.LocalPool = pools.BlockCap
	}
	if c.AllocSpinLimit <= 0 {
		c.AllocSpinLimit = 1 << 22
	}
	minCap := 2 * c.MaxThreads * c.LocalPool
	if c.Capacity < minCap {
		c.Capacity = minCap
	}
}

// Manager owns the arena, the three block pools and the thread contexts
// of one optimistic-access instance. T is the node type of the client
// structure.
type Manager[T any] struct {
	cfg      Config
	nodes    *arena.Arena[T]
	ba       *pools.BlockArena
	ready    pools.CountedStack
	retire   pools.VStack
	process  pools.VStack
	threads  []*Thread[T]
	reset    func(*T) // zeroes a node on allocation (Algorithm 5's memset)
	lessor   *lease.Registry
	phaseHst obs.Histogram
	stats    *obs.ThreadStats // per-thread counter blocks, one per context
	tracer   *trace.Recorder  // per-thread protocol event rings
	// onRecycle, when set, sees every slot a drain recycles (OnRecycle).
	onRecycle func(slot uint32)
}

// NewManager builds a manager. reset must zero every field of a node using
// plain or atomic stores; it runs while the slot is owned exclusively by the
// allocating thread.
func NewManager[T any](cfg Config, reset func(*T)) *Manager[T] {
	cfg.fill()
	m := &Manager[T]{
		cfg:    cfg,
		nodes:  arena.New[T](cfg.Capacity),
		ba:     pools.NewBlockArena(cfg.Capacity, cfg.LocalPool, cfg.MaxThreads),
		reset:  reset,
		lessor: lease.NewRegistry(cfg.MaxThreads),
	}
	m.ready.Init()
	m.retire.Init(0)
	m.process.Init(0)
	m.ready.PushRange(m.ba, m.nodes.Reserve(cfg.Capacity), cfg.Capacity, int32(cfg.LocalPool))
	m.stats = obs.NewThreadStats(cfg.MaxThreads)
	m.tracer = trace.NewRecorder(cfg.MaxThreads, 0)
	m.threads = make([]*Thread[T], cfg.MaxThreads)
	hpw := hpWidth(cfg.Capacity)
	for i := range m.threads {
		t := &Thread[T]{
			view:      m.nodes.View(),
			warning:   warning{stats: m.stats.At(i), ring: m.tracer.Ring(i)},
			mgr:       m,
			id:        i,
			hps:       make([]atomic.Uint64, tripleWords*(1+(cfg.OwnerHPs+2)/3)),
			hpw:       hpw,
			allocBlk:  pools.NoBlock,
			retireBlk: pools.NoBlock,
		}
		m.threads[i] = t
	}
	return m
}

// OnRecycle installs fn as the manager's recycle hook: every drain calls
// it with each slot it recycles. It is a test seam (smr.Gens records
// generations through it) and must be installed before any thread runs.
// Without one, a recycle costs a nil check.
func (m *Manager[T]) OnRecycle(fn func(slot uint32)) { m.onRecycle = fn }

// Arena exposes the node arena so client structures can dereference
// handles.
func (m *Manager[T]) Arena() *arena.Arena[T] { return m.nodes }

// Thread returns the context for thread id. Each context must be used by a
// single goroutine at a time.
func (m *Manager[T]) Thread(id int) *Thread[T] { return m.threads[id] }

// MaxThreads returns the configured thread count.
func (m *Manager[T]) MaxThreads() int { return m.cfg.MaxThreads }

// Lessor exposes the manager's session-slot registry: the lock-free free
// list that multiplexes dynamically created goroutines onto the fixed
// thread contexts (see package lease). Structures built on the manager
// route their Acquire/Release surface through it.
func (m *Manager[T]) Lessor() *lease.Registry { return m.lessor }

// AcquireThread leases a free thread context for the calling goroutine.
// It fails with lease.ErrNoFreeSessions when all MaxThreads contexts are
// leased and with lease.ErrClosed after Close. The returned context must
// be returned with ReleaseThread; contexts handed out via Thread(id)
// (the fixed-slot API) bypass the registry and must never be released.
func (m *Manager[T]) AcquireThread() (*Thread[T], error) {
	id, err := m.lessor.Acquire()
	if err != nil {
		return nil, err
	}
	return m.threads[id], nil
}

// ReleaseThread returns a context leased by AcquireThread to the free
// pool. It first clears the hazard pointers the context's last operation
// left published, so an idle context pins nothing. The thread's local
// alloc/retire blocks stay attached to the context (the next lessee
// inherits them), so no slots are stranded by lease churn. It panics on a
// context that is not currently leased.
func (m *Manager[T]) ReleaseThread(t *Thread[T]) {
	t.ClearCAS()
	t.ClearOwnerHPs()
	m.lessor.Release(t.id)
}

// Close marks the session registry closed: AcquireThread fails with
// lease.ErrClosed from then on, while outstanding leases stay valid so a
// draining server can release them one by one.
func (m *Manager[T]) Close() { m.lessor.Close() }

// Phase returns the current (even) phase version of the retire pool,
// i.e. twice the number of completed phase swaps. While a swap is in
// flight (the version is odd) the phase being swapped is reported.
func (m *Manager[T]) Phase() uint64 { return uint64(m.retire.Ver() &^ 1) }

// Quiesce drives reclamation phases (on the calling goroutine, using
// thread context 0) until every retired slot that is not hazard-pointer
// protected has been recycled. Call it after workers stop — for graceful
// shutdown accounting or test teardown. It returns the number of slots
// still withheld by hazard pointers.
func (m *Manager[T]) Quiesce() int {
	t := m.threads[0]
	t.FlushRetired()
	for i := 0; i < 4; i++ { // retire→swap→process needs at most two phases
		t.Recycling()
		if m.slots(&m.retire)+m.slots(&m.process) == 0 {
			break
		}
	}
	return m.slots(&m.retire) + m.slots(&m.process)
}

// slots counts the slots on s's chain. Only safe while no thread runs
// (Quiesce, tests).
func (m *Manager[T]) slots(s *pools.VStack) int {
	_, h := s.Load()
	_, n := pools.ChainLen(m.ba, h)
	return n
}

// InjectWarnings sets every thread's warning bit as if a recycler had
// announced the given phase. It is a fault-injection hook for tests: a
// spurious warning may only ever cause a (safe) restart of a
// parallelizable method, so chaos tests broadcast fake phases while
// checking that operation results stay sequential.
func (m *Manager[T]) InjectWarnings(phase uint32) { m.setWarnings(phase) }

// PhasePauses returns the histogram of per-call Recycling durations — the
// reclamation pauses an allocating thread can experience.
func (m *Manager[T]) PhasePauses() *obs.Histogram { return &m.phaseHst }

// Stats aggregates counters across all threads. The per-thread blocks are
// atomic, so Stats is safe to call while workers run (live monitoring);
// the cross-counter view is then approximate by in-flight operations.
func (m *Manager[T]) Stats() smr.Stats {
	tot := m.stats.Totals()
	return smr.Stats{
		Allocs:    tot[obs.Allocs],
		Retires:   tot[obs.Retires],
		Recycled:  tot[obs.Recycled],
		ReRetired: tot[obs.ReRetired],
		Restarts:  tot[obs.Restarts],
		Phases:    m.Phase() / 2,
	}
}

// ObsStats exposes the per-thread counter blocks for registration and for
// drivers that feed the Ops counter.
func (m *Manager[T]) ObsStats() *obs.ThreadStats { return m.stats }

// TraceRecorder exposes the per-thread protocol event rings (phase
// transitions, warning traffic, restarts, drains, freezes, refills).
func (m *Manager[T]) TraceRecorder() *trace.Recorder { return m.tracer }

// Backlog returns the retired slots not yet recycled (retires − recycled;
// approximate while writers run). It is the input of the health engine's
// backlog_growth rule and the oa_retired_backlog_slots gauge.
func (m *Manager[T]) Backlog() uint64 {
	tot := m.stats.Totals()
	if tot[obs.Recycled] >= tot[obs.Retires] {
		return 0
	}
	return tot[obs.Retires] - tot[obs.Recycled]
}

// RetireFrozen reports whether the retire pool's version is odd: a phase
// swap is in flight. It is the input of the health engine's phase_stalled
// rule and the oa_retire_pool_frozen gauge.
func (m *Manager[T]) RetireFrozen() bool { return m.retire.Ver()&1 == 1 }

// RegisterObs registers the manager's live metric sources with reg, as
// the one shard of RegisterShards.
func (m *Manager[T]) RegisterObs(reg *obs.Registry) { RegisterShards(reg, []*Manager[T]{m}) }

// smrCounters are the per-thread counters OA feeds, exported as oa_smr_*.
var smrCounters = [...]obs.Counter{obs.Allocs, obs.Retires, obs.Recycled,
	obs.ReRetired, obs.Restarts, obs.DrainPasses, obs.HPPublishes}

// RegisterShards registers the live metric sources of ms — the shards of
// one keyspace, each its own manager — with reg. Each oa_smr_* counter has
// one series per thread context (label thread), summing context i over
// the shards. The phase-pause histogram and the gauges sampled from the
// arena, the block pools and the phase state have one series per shard
// (label shard). Every shard's trace ring joins the registry's trace.
// Each family's consumer is in DESIGN.md §6's signal catalogue. Gauges
// derived from counter pairs are approximate while writers run.
func RegisterShards[T any](reg *obs.Registry, ms []*Manager[T]) {
	threads := 0
	for _, m := range ms {
		threads = max(threads, m.stats.Threads())
		reg.Trace(m.tracer)
	}
	for _, c := range smrCounters {
		reg.CounterVec("oa_smr_"+c.String()+"_total", "per-thread "+c.String()+" counter, summed over shards",
			"thread", threads, func(i int) uint64 {
				var n uint64
				for _, m := range ms {
					if i < m.stats.Threads() {
						n += m.stats.At(i).Load(c)
					}
				}
				return n
			})
	}
	reg.HistogramVec("oa_phase_pause_seconds",
		"duration of Recycling calls (Algorithm 6 reclamation pauses)",
		"shard", len(ms), func(i int) *obs.Histogram { return &ms[i].phaseHst })
	gauge := func(name, help string, fn func(m *Manager[T]) float64) {
		reg.GaugeVec(name, help, "shard", len(ms), func(i int) float64 { return fn(ms[i]) })
	}
	gauge("oa_phase", "completed reclamation phase swaps",
		func(m *Manager[T]) float64 { return float64(m.Phase() / 2) })
	gauge("oa_retired_backlog_slots",
		"retired slots not yet recycled (retires - recycled, approximate)",
		func(m *Manager[T]) float64 { return float64(m.Backlog()) })
	gauge("oa_arena_slots_reserved", "node slots handed out by the arena",
		func(m *Manager[T]) float64 { return float64(m.nodes.Limit()) })
	gauge("oa_arena_slots_capacity", "node slots backed by the arena: the shard's capacity, exactly",
		func(m *Manager[T]) float64 { return float64(m.nodes.Cap()) })
	gauge("oa_retire_pool_frozen",
		"1 while the retire pool's version is odd (phase swap in flight)",
		func(m *Manager[T]) float64 {
			if m.RetireFrozen() {
				return 1
			}
			return 0
		})
}

// setWarnings implements the phase-change broadcast: every thread's warning
// word becomes {phase, 1}. With the Appendix E optimization the update is a
// CAS that succeeds at most once per phase per thread, so each thread
// restarts at most once per phase.
//
// The CAS must be retried until the observed stamp is current: the owner
// clears the warning bit with its own CAS (Thread.Check), and a recycler
// whose single attempt lost that race would silently skip stamping the
// thread for the phase — a lost warning, which is a safety bug (the thread
// could act on a stale read of a slot this very phase recycles). Losing to
// a *different phase's* recycler re-enters the loop too; overwriting a
// foreign stamp is always safe (at worst one extra restart).
func (m *Manager[T]) setWarnings(phase uint32) {
	word := uint64(phase)<<8 | 1
	for _, t := range m.threads {
		if m.cfg.WarningByStore {
			// Naive broadcast (the ablation): every recycler of the phase
			// re-warns every thread, re-triggering restarts after the
			// thread already acknowledged — the paper's "n restarts per
			// thread per write" downside.
			t.warn.Store(word)
			continue
		}
		for {
			w := t.warn.Load()
			if w>>8 == uint64(phase) {
				break // already stamped for this phase (Appendix E)
			}
			if t.warn.CompareAndSwap(w, word) {
				break
			}
		}
	}
}

// freezeRetire initiates the phase swap for even version v: the retire
// pool is CASed from (v, h) to (v+1, h). The CAS retries while concurrent
// retire pushes move h, so the freeze — unlike a single-attempt CAS —
// cannot silently fail and leave the caller's local version ahead of the
// pool; it stops once a helper's freeze moved the version on. The caller
// must have observed the processing pool empty at v first (the freeze
// precondition; see the package deviation note). A freeze this caller
// made is recorded in rg.
func (m *Manager[T]) freezeRetire(v uint32, rg *trace.Ring) {
	var bo pools.Backoff
	for {
		rv, h := m.retire.Load()
		if rv != v {
			return
		}
		if m.retire.CompareAndSwap(v, h, v+1, h) {
			if trace.Enabled() {
				rg.Record(trace.EvFreeze, uint64(v))
			}
			return
		}
		bo.Pause()
	}
}

// helpSwap completes any in-flight phase swap and returns the retire
// pool's even version. A frozen retire pool at v+1 holds the chain h of
// phase v: it is installed in the processing pool, which the freezer saw
// empty at v, and the retire pool is reset to (v+2, empty). Both CASes
// fail harmlessly once another helper made them, so helpers need not
// agree on who goes first.
func (m *Manager[T]) helpSwap() uint32 {
	var bo pools.Backoff
	for {
		rv, h := m.retire.Load()
		if rv&1 == 0 {
			return rv
		}
		m.process.CompareAndSwap(rv-1, pools.NoBlock, rv+1, h)
		m.retire.CompareAndSwap(rv, h, rv+1, pools.NoBlock)
		bo.Pause()
	}
}
