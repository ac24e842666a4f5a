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
// Reclamation proceeds in phases (Algorithms 4–6) over three pools of
// 126-slot blocks: retired slots accumulate in the retirePool; a phase
// starts by atomically moving the whole retirePool into the processingPool
// (the odd/even version freeze trick of §4); slots in the processingPool
// that no hazard pointer protects move to the readyPool for reallocation,
// and protected ones return to the retirePool for the next phase.
//
// Each pool is sharded (see internal/pools): thread t pushes to and pops
// from shard t&mask first and steals from the other shards only when its
// home runs dry, so refills and flushes are uncontended in steady state.
// The phase swap walks every retire shard, freezing each with the same
// odd-version CAS the flat pool used; the pool counts as frozen once all
// shards are odd at the same version, and helpers complete partial swaps
// shard by shard. A swap in flight therefore leaves the shards spanning at
// most {v, v+1, v+2}, and evenFloor(min shard version) always names the
// phase being swapped.
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
//   - Hazard-pointer publication. Two HPs share one word, a word is stored
//     only when it changes, and HPs stay published after a successful CAS
//     until the next publication overwrites them (restart paths and
//     ReleaseThread clear them). Each atomic store is a full fence, so
//     this cuts the paper's per-barrier fence to the words that change;
//     the safety argument is on Thread.publish and in DESIGN.md §4.
package core

import (
	"runtime"
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
	// Shards sets the number of shards each global block pool is split
	// into, rounded up to a power of two and capped at pools.MaxShards.
	// Zero picks nextPow2(min(MaxThreads, GOMAXPROCS)): one shard per
	// thread that can actually run concurrently — more would only lengthen
	// the steal sweep without removing any contention.
	Shards int
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
	if c.Shards <= 0 {
		c.Shards = c.MaxThreads
		if p := runtime.GOMAXPROCS(0); p < c.Shards {
			c.Shards = p
		}
	}
	c.Shards = pools.NextPow2(c.Shards)
	if c.Shards > pools.MaxShards {
		c.Shards = pools.MaxShards
	}
	minCap := 2 * c.MaxThreads * c.LocalPool
	if c.Capacity < minCap {
		c.Capacity = minCap
	}
}

// Manager owns the arena, the three sharded pools and the thread contexts
// of one optimistic-access instance. T is the node type of the client
// structure.
type Manager[T any] struct {
	cfg      Config
	nodes    *arena.Arena[T]
	ba       *pools.BlockArena
	ready    pools.ShardedCountedStack
	retire   pools.ShardedVStack
	process  pools.ShardedVStack
	threads  []*Thread[T]
	reset    func(*T) // zeroes a node on allocation (Algorithm 5's memset)
	lessor   *lease.Registry
	phaseHst obs.Histogram
	stats    *obs.ThreadStats // per-thread counter blocks, one per context
	tracer   *trace.Recorder  // per-thread protocol event rings
}

// NewManager builds a manager. reset must zero every field of a node using
// plain or atomic stores; it runs while the slot is owned exclusively by the
// allocating thread.
func NewManager[T any](cfg Config, reset func(*T)) *Manager[T] {
	cfg.fill()
	m := &Manager[T]{
		cfg:    cfg,
		nodes:  arena.New[T](cfg.Capacity),
		ba:     pools.NewBlockArena(cfg.Capacity),
		reset:  reset,
		lessor: lease.NewRegistry(cfg.MaxThreads),
	}
	m.ready.Init(cfg.Shards)
	m.retire.Init(cfg.Shards, 0)
	m.process.Init(cfg.Shards, 0)
	// Pre-chop the whole capacity into ready blocks, dealt round-robin
	// across the shards so every thread's home shard starts stocked.
	base := m.nodes.Reserve(cfg.Capacity)
	blk := m.ba.Get()
	shard := uint32(0)
	for i := 0; i < cfg.Capacity; i++ {
		m.ba.B(blk).Push(base + uint32(i))
		if m.ba.B(blk).Full(int32(cfg.LocalPool)) {
			m.ready.Push(m.ba, blk, shard)
			shard++
			blk = m.ba.Get()
		}
	}
	if !m.ba.B(blk).Empty() {
		m.ready.Push(m.ba, blk, shard)
	} else {
		m.ba.Put(blk)
	}
	m.stats = obs.NewThreadStats(cfg.MaxThreads)
	m.tracer = trace.NewRecorder(cfg.MaxThreads, 0)
	m.threads = make([]*Thread[T], cfg.MaxThreads)
	for i := range m.threads {
		t := &Thread[T]{
			view:      m.nodes.View(),
			warning:   warning{stats: m.stats.At(i), ring: m.tracer.Ring(i)},
			mgr:       m,
			id:        i,
			hps:       make([]atomic.Uint64, writeWords+(cfg.OwnerHPs+1)/2),
			allocBlk:  pools.NoBlock,
			retireBlk: pools.NoBlock,
			rng:       uint64(i)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03,
		}
		m.threads[i] = t
	}
	return m
}

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
// flight the minimum shard version is reported, rounded down to even.
func (m *Manager[T]) Phase() uint64 {
	v, _ := m.retire.Scan()
	return uint64(v &^ 1)
}

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
		if !m.retire.AnyBlocks() && !m.process.AnyBlocks() {
			break
		}
	}
	_, retired := m.retire.ChainStats(m.ba)
	_, processing := m.process.ChainStats(m.ba)
	return retired + processing
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

// RetireFrozen reports whether any retire shard's version is odd: a phase
// swap is in flight. It is the input of the health engine's phase_stalled
// rule and the oa_retire_pool_frozen gauge.
func (m *Manager[T]) RetireFrozen() bool {
	_, stable := m.retire.Scan()
	return !stable
}

// RegisterObs registers the manager's live metric sources with reg: the
// per-thread counters it feeds (prefix oa_smr), the phase-pause
// histogram, and gauges sampled from the arena, the block pools and the
// phase state. Each family's consumer is in DESIGN.md §6's signal
// catalogue. Gauges derived from counter pairs are approximate while
// writers run.
func (m *Manager[T]) RegisterObs(reg *obs.Registry) {
	reg.ThreadCounters("oa_smr", m.stats, obs.Allocs, obs.Retires, obs.Recycled,
		obs.ReRetired, obs.Restarts, obs.DrainPasses, obs.HPPublishes)
	reg.Trace(m.tracer)
	reg.Histogram("oa_phase_pause_seconds",
		"duration of Recycling calls (Algorithm 6 reclamation pauses)", &m.phaseHst)
	reg.Gauge("oa_phase", "completed reclamation phase swaps",
		func() float64 { return float64(m.Phase() / 2) })
	reg.Gauge("oa_retired_backlog_slots",
		"retired slots not yet recycled (retires - recycled, approximate)",
		func() float64 { return float64(m.Backlog()) })
	reg.Gauge("oa_arena_slots_reserved", "node slots handed out by the arena",
		func() float64 { return float64(m.nodes.Limit()) })
	reg.Gauge("oa_arena_slots_capacity", "node slots backed by arena chunks",
		func() float64 { return float64(m.nodes.Cap()) })
	reg.Gauge("oa_retire_pool_frozen",
		"1 while any retire shard's version is odd (phase swap in flight)",
		func() float64 {
			if m.RetireFrozen() {
				return 1
			}
			return 0
		})
	reg.Counter("oa_pool_steals_total",
		"block pops served by a shard other than the popping thread's home",
		func() uint64 {
			return m.ready.TotalSteals() + m.retire.TotalSteals() + m.process.TotalSteals()
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

// freezeRetire initiates the phase swap for even version v: every retire
// shard is CASed from (v, head) to (v+1, head). Each shard's CAS retries
// while concurrent retire pushes move its head, so the freeze — unlike a
// single-attempt CAS — cannot silently fail and leave the caller's local
// version ahead of the pool. Shards already frozen or advanced by helpers
// are skipped. The caller must have verified every processing shard empty
// at v first (the freeze precondition; see the package deviation note).
// Shards this caller froze are recorded in rg (the initiator's trace
// ring; helpers that race it ahead go untraced, which only under-counts).
func (m *Manager[T]) freezeRetire(v uint32, rg *trace.Ring) {
	for i := 0; i < m.retire.NumShards(); i++ {
		var bo pools.Backoff
		for {
			sv, h := m.retire.LoadShard(i)
			if sv != v {
				break // frozen (v+1) or completed (v+2) by a helper
			}
			if m.retire.CASShard(i, v, h, v+1, h) {
				if trace.Enabled() {
					rg.Record(trace.EvFreeze, trace.FreezePayload(v, i))
				}
				break
			}
			bo.Pause()
		}
	}
}

// completeSwap drives the in-flight swap of phase v (even) to completion:
// for every retire shard, finish freezing it at v+1, move its frozen chain
// into the matching processing shard at v+2, and reset the retire shard to
// (v+2, empty). A frozen shard's head is immutable (pushes fail on the odd
// version and nothing pops the retire pool), so all helpers agree on the
// chain they move, and every CAS is idempotent across helpers.
func (m *Manager[T]) completeSwap(v uint32) {
	for i := 0; i < m.retire.NumShards(); i++ {
		var bo pools.Backoff
		for {
			sv, h := m.retire.LoadShard(i)
			if sv >= v+2 {
				break // this shard's swap already completed
			}
			if sv == v {
				if !m.retire.CASShard(i, v, h, v+1, h) {
					bo.Pause()
				}
				continue
			}
			// sv == v+1: move the frozen chain into the processing shard.
			pv, ph := m.process.LoadShard(i)
			if pv == v {
				m.process.CASShard(i, pv, ph, v+2, h)
			}
			m.retire.CASShard(i, v+1, h, v+2, pools.NoBlock)
		}
	}
}

// helpSwap completes any in-flight phase swap and returns the retire
// pool's stable even version (all shards equal). The paper's single-CAS
// swap becomes a walk over the shards; lock freedom is preserved because
// every step is a helpable CAS on versioned state that only moves forward.
func (m *Manager[T]) helpSwap() uint32 {
	var bo pools.Backoff
	for {
		v, stable := m.retire.Scan()
		if stable {
			return v
		}
		m.completeSwap(v &^ 1)
		bo.Pause()
	}
}
