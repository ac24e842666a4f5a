package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/pools"
	"repro/internal/smr"
	"repro/internal/trace"
)

// Thread is the per-thread context of the optimistic access scheme. It
// carries the warning word, the hazard pointers, the thread's local phase
// version and the two local pools (allocation and retire blocks).
//
// A Thread must be used by one goroutine at a time; the recycler running in
// any thread may concurrently *read* the hazard pointers and *update* the
// warning word, which is why both are atomics.
type Thread[T any] struct {
	// nodes is the manager's whole slot space as one slice: the arena's
	// first growth is one allocation, and an OA manager never grows past
	// it, so a dereference is one bounds-checked index with no chunk
	// directory in between. gens is the matching slice of generation
	// counters, which drain bumps.
	nodes []T
	gens  []atomic.Uint32

	// warning holds the warning word and the slow path of every check on
	// it, with the thread's counter block and trace ring.
	warning

	mgr *Manager[T]
	id  int

	// hps packs two hazard pointers per word, each 32-bit half holding
	// slot+1 (zero meaning empty). Words [0, writeWords) hold the three
	// write HPs of Algorithm 2; owner HP i of Algorithm 3 is half i&1 of
	// word writeWords+i/2. Only the owner stores, and it stores a word
	// only when its value changes; HPs stay published after a successful
	// CAS or commit until the next publication overwrites them, the
	// restart paths clear them, and so does ReleaseThread.
	hps []atomic.Uint64

	localVer  uint32
	allocBlk  uint32 // current allocation block, NoBlock if none
	retireBlk uint32 // current local retire block, NoBlock if none

	// rng drives the pseudo-random shard steal probing (xorshift64,
	// thread-local so probing costs no shared memory traffic).
	rng uint64

	scratchHP smr.SlotSet // reused sorted hazard-pointer snapshot
	// snapPhase/snapValid key the scratchHP cache: within one phase the
	// sealed snapshot is rebuilt at most once per thread, because every
	// drain pass of phase p may reuse any snapshot taken after this thread
	// ran setWarnings(p) (see snapshotHPs for the safety argument).
	snapPhase uint32
	snapValid bool
}

// warning is the part of a Thread that every barrier touches: the warning
// word, and the acknowledgement that runs when a check finds it set. It is
// not generic, so the slow path is compiled once, and Check — one load and
// a branch in front of it — fits the inliner's budget.
type warning struct {
	// warn packs {phase:56 | warning:8}. The recycler sets it via CAS (or
	// plain store under the WarningByStore ablation); the owner clears the
	// low byte, preserving the phase stamp so each phase sets it at most
	// once (Appendix E).
	warn atomic.Uint64

	// stats is this thread's cache-padded counter block inside the
	// manager's obs.ThreadStats array. The owner increments with
	// uncontended atomic adds; any goroutine may aggregate concurrently
	// (Manager.Stats, the obs registry), so no quiescence is required.
	// Per-publish hot counters are gated on obs.Enabled().
	stats *obs.PerThread

	// ring is this thread's protocol event trace ring. Recording is gated
	// on trace.Enabled() at every site and only ever touches sites already
	// off the per-read fast path (warning hits, refills, recycling).
	ring *trace.Ring
}

// check is the warning test shared by the read barrier (Check), the
// pre-CAS barrier (ProtectCAS) and the generator seal (SealGenerator):
// one load of the warning word and a branch. cause attributes the restart
// in the event trace.
func (wn *warning) check(cause trace.Cause) bool {
	return wn.warn.Load()&warnMask != 0 && wn.ack(cause)
}

// ack is check's slow path: it clears the warning, counts it and the
// restart it forces, and records both in the trace. It always reports
// true. All trace traffic lives here, so check stays a load and a branch.
//
// ack re-reads the word rather than taking check's load as an argument,
// which keeps check inside the inliner's budget. A recycler may stamp a
// newer phase in between; clearing that stamp's bit is as safe as clearing
// the one check saw, because the caller restarts from scratch after it.
//
//go:noinline
func (wn *warning) ack(cause trace.Cause) bool {
	w := wn.warn.Load()
	if trace.Enabled() {
		wn.ring.Record(trace.EvWarnCheck, w>>8)
	}
	wn.warn.CompareAndSwap(w, w&^warnMask)
	if trace.Enabled() {
		wn.ring.Record(trace.EvWarnAck, w>>8)
		wn.ring.Record(trace.EvRestart, uint64(cause))
	}
	wn.stats.Inc(obs.Warnings)
	wn.stats.Inc(obs.Restarts)
	return true
}

// ID returns the thread index within the manager.
func (t *Thread[T]) ID() int { return t.id }

// Node dereferences a slot handle. The result may alias recycled memory;
// callers must follow every read with Check per Algorithm 1. The lookup
// indexes the thread's contiguous node slice: one load of its base and
// bounds, no atomics and no chunk directory.
func (t *Thread[T]) Node(slot uint32) *T { return &t.nodes[slot] }

// Warning reports whether the warning bit is set (a recycling phase started
// since the thread last cleared it).
func (t *Thread[T]) Warning() bool { return t.warn.Load()&warnMask != 0 }

// Check implements the tail of Algorithm 1: it must be called after every
// optimistic read of shared node memory. It returns true when the enclosing
// normalized method must restart; in that case the warning bit has been
// cleared already (restarting from scratch cannot encounter slots retired
// before the current phase, so clearing is safe — §4). It inlines into
// every traversal: a load of the warning word and a branch, with the
// acknowledgement out of line.
func (t *Thread[T]) Check() bool { return t.check(trace.CauseRead) }

// writeWords is the number of packed words holding the WriteHPs.
const writeWords = (WriteHPs + 1) / 2

// hpHalf is the half-word a hazard pointer to p publishes: slot+1, or 0
// for nil. It is the handle with its mark bit shifted out (arena.Ptr
// stores slot+1 in bits 1..32).
func hpHalf(p arena.Ptr) uint64 { return uint64(uint32(p >> 1)) }

// publish stores hazard-pointer word i unless it already holds v. Skipping
// an unchanged word is safe because only the owner stores it and Go
// atomics are sequentially consistent: the earlier store that left v
// there precedes, in the one total order, the warning load that follows
// this call, exactly as a fresh store would. A recycler's snapshot taken
// after that store sees v; one taken before it followed a warning this
// thread either observes at that load or acknowledged before starting
// the traversal that produced v — which then cannot reach a slot retired
// before the phase (§4).
func (t *Thread[T]) publish(i int, v uint64) {
	w := &t.hps[i]
	if w.Load() == v {
		return
	}
	w.Store(v)
	if obs.Enabled() {
		t.stats.Inc(obs.HPPublishes)
	}
}

// ProtectCAS implements the prologue of Algorithm 2 for an observable
// instruction CAS(&o.field, a2, a3): it publishes hazard pointers for the
// (unmarked) object and both pointer operands, then performs the warning
// check. Pass NilPtr for operands that are not pointers. A true result
// means restart: the hazard pointers have been cleared and the warning
// reset. On false the caller may execute the CAS; the hazard pointers
// stay published until the next ProtectCAS overwrites them (ClearCAS
// withdraws them early).
//
// The atomic stores publishing the hazard pointers are sequentially
// consistent, which subsumes the paper's explicit memory fence.
func (t *Thread[T]) ProtectCAS(o, a2, a3 arena.Ptr) bool {
	t.publish(0, hpHalf(o)|hpHalf(a2)<<32)
	t.publish(1, hpHalf(a3))
	if t.check(trace.CauseWrite) {
		t.ClearCAS()
		return true
	}
	return false
}

// ClearCAS nullifies the three write-barrier hazard pointers (Algorithm 2
// line 11).
func (t *Thread[T]) ClearCAS() {
	for i := 0; i < writeWords; i++ {
		t.publish(i, 0)
	}
}

// SetOwnerHP publishes owner hazard pointer i (Algorithm 3's HP^owner set),
// protecting an object mentioned in the generator's CAS list until a later
// publication overwrites it or ClearOwnerHPs runs.
func (t *Thread[T]) SetOwnerHP(i int, p arena.Ptr) {
	w := writeWords + i/2
	sh := uint(i&1) * 32
	t.publish(w, t.hps[w].Load()&^(0xffffffff<<sh)|hpHalf(p)<<sh)
}

// SetOwnerHPs publishes owner hazard pointers 0..2 — the whole owner set
// of a single-CAS generator (Algorithm 3 with C = 1) — as two words.
func (t *Thread[T]) SetOwnerHPs(h0, h1, h2 arena.Ptr) {
	t.publish(writeWords, hpHalf(h0)|hpHalf(h1)<<32)
	t.publish(writeWords+1, hpHalf(h2))
}

// SealGenerator performs Algorithm 3's epilogue after the owner hazard
// pointers are installed: the (implicit) fence plus the warning check. A
// true result means the generator must restart; the owner hazard pointers
// have been cleared.
func (t *Thread[T]) SealGenerator() bool {
	if t.check(trace.CauseSeal) {
		t.ClearOwnerHPs()
		return true
	}
	return false
}

// ClearOwnerHPs nullifies all owner hazard pointers, storing only the
// words that are not already empty.
func (t *Thread[T]) ClearOwnerHPs() {
	for i := writeWords; i < len(t.hps); i++ {
		t.publish(i, 0)
	}
}

// PublishedHPs reports how many hazard pointers the thread currently
// publishes (non-empty halves across every word).
func (t *Thread[T]) PublishedHPs() int {
	n := 0
	for i := range t.hps {
		w := t.hps[i].Load()
		if uint32(w) != 0 {
			n++
		}
		if w>>32 != 0 {
			n++
		}
	}
	return n
}

// Alloc implements Algorithm 5: pop a slot from the local allocation block,
// refilling from the readyPool and running Recycling as needed, then zero
// the slot. Refills hit the thread's home shard first — uncontended in
// steady state — and steal from sibling shards only when it runs dry.
func (t *Thread[T]) Alloc() uint32 {
	m := t.mgr
	for spins := 0; ; spins++ {
		if t.allocBlk != pools.NoBlock {
			b := m.ba.B(t.allocBlk)
			if !b.Empty() {
				slot := b.Pop()
				m.reset(&t.nodes[slot])
				t.stats.Inc(obs.Allocs)
				return slot
			}
			m.ba.Put(t.allocBlk)
			t.allocBlk = pools.NoBlock
		}
		if blk, shard, st := m.ready.PopFrom(m.ba, uint32(t.id), &t.rng); st == pools.StatusOK {
			t.allocBlk = blk
			if trace.Enabled() {
				k := trace.EvRefill
				if shard != m.ready.HomeShard(uint32(t.id)) {
					k = trace.EvSteal
				}
				t.ring.Record(k, uint64(shard))
			}
			continue
		}
		if spins >= m.cfg.AllocSpinLimit {
			// The panic value is an error wrapping the shared capacity
			// sentinel so recover + errors.Is(err, ErrCapacityExhausted)
			// can classify it; admission-control layers should reject
			// load well before this point (see package lease).
			panic(fmt.Errorf(
				"core: allocation starved after %d recycling attempts; "+
					"capacity %d is too small for the live set "+
					"(size it as live nodes + δ, δ ≥ 2·threads·localPool = %d): %w",
				spins, m.cfg.Capacity, 2*m.cfg.MaxThreads*m.cfg.LocalPool,
				lease.ErrCapacityExhausted))
		}
		t.Recycling()
	}
}

// Retire implements Algorithm 4: buffer the slot in the local retire block
// and push full blocks into the retirePool, helping a phase change on
// VER-MISMATCH.
//
// The caller must guarantee proper retirement (§3.3): the slot was unlinked
// from the structure, and only one thread retires it.
func (t *Thread[T]) Retire(slot uint32) {
	m := t.mgr
	t.stats.Inc(obs.Retires)
	if t.retireBlk == pools.NoBlock {
		t.retireBlk = m.ba.Get()
	}
	b := m.ba.B(t.retireBlk)
	b.Push(slot)
	if !b.Full(int32(m.cfg.LocalPool)) {
		if obs.Enabled() {
			t.stats.SetLocalRetired(uint64(b.N))
		}
		return
	}
	for {
		if st := m.retire.Push(m.ba, t.retireBlk, t.localVer, uint32(t.id)); st == pools.StatusOK {
			t.retireBlk = pools.NoBlock
			if obs.Enabled() {
				t.stats.SetLocalRetired(0)
			}
			return
		}
		t.Recycling()
	}
}

// FlushRetired force-pushes a partially filled local retire block into the
// global pipeline. Benchmarks and tests call it when a thread finishes so
// no slots stay stranded in local buffers.
func (t *Thread[T]) FlushRetired() {
	m := t.mgr
	if t.retireBlk == pools.NoBlock || m.ba.B(t.retireBlk).Empty() {
		return
	}
	for {
		if st := m.retire.Push(m.ba, t.retireBlk, t.localVer, uint32(t.id)); st == pools.StatusOK {
			t.retireBlk = pools.NoBlock
			if obs.Enabled() {
				t.stats.SetLocalRetired(0)
			}
			return
		}
		t.Recycling()
	}
}

// Recycling implements Algorithm 6. It (1) performs or helps the phase
// swap, (2) sets all warning bits, (3) snapshots all hazard pointers, and
// (4) drains the processingPool, routing unprotected slots to the readyPool
// and protected ones back to the retirePool. The call's duration is
// recorded in the manager's pause histogram.
func (t *Thread[T]) Recycling() {
	m := t.mgr
	started := time.Now()
	defer func() { m.phaseHst.Observe(time.Since(started)) }()
	prevVer := t.localVer
	rv, stable := m.retire.Scan()
	switch {
	case stable && rv == t.localVer:
		// We are current. Start a new phase only once this phase's
		// processing pool is drained across every shard (see the deviation
		// note in the package comment); otherwise participate in the
		// current phase below.
		if m.process.EmptyAt(t.localVer) {
			m.freezeRetire(t.localVer, t.ring)
			m.helpSwap()
			t.localVer += 2
		}
	case rv&^1 == t.localVer:
		// A swap for our phase is in flight (some shards odd or already
		// advanced): help complete it. The freezer verified the processing
		// pool was empty.
		m.helpSwap()
		t.localVer += 2
	default:
		// We lag behind: jump to the pool's current phase (the paper's
		// Algorithm 6 line 9 catches up one phase per call, but the
		// intermediate phases were completed by their own recyclers, so a
		// laggard has nothing to do in them — and Quiesce relies on one
		// call reaching the front however long this context sat idle).
		if nv := rv &^ 1; nv > t.localVer {
			t.localVer = nv
		} else {
			t.localVer += 2
		}
	}
	if trace.Enabled() && t.localVer != prevVer {
		t.ring.Record(trace.EvPhase, uint64(t.localVer))
	}
	if v, _ := m.retire.Scan(); v > t.localVer {
		return // phase already finished (Algorithm 6 line 10)
	}
	if trace.Enabled() {
		t.ring.Record(trace.EvWarnSet, uint64(t.localVer))
	}
	m.setWarnings(t.localVer)
	hp := t.snapshotHPs()
	t.stats.Inc(obs.DrainPasses)
	recycled, reRetired := t.drain(hp)
	if trace.Enabled() {
		t.ring.Record(trace.EvDrain, trace.DrainPayload(recycled, reRetired))
	}
}

// snapshotHPs collects every thread's hazard pointers into the reusable
// sorted scratch set (Algorithm 6 lines 16–18; the paper uses a hash
// table, but with at most threads·HPs entries a sorted array + binary
// search makes both the build and each drain probe cheaper).
//
// The sealed set is cached per phase: repeated drain passes inside one
// phase (an allocating thread spinning on Recycling, or a laggard catching
// up after the pool already drained) reuse the snapshot instead of
// re-reading threads·HPs atomics and re-sorting. Reuse is safe in both
// directions. HPs cleared since the snapshot only make it pessimistic: the
// slot is re-retired and reclaimed next phase. HPs published since the
// snapshot cannot protect a slot this phase drains: the snapshot was taken
// after this thread ran setWarnings(phase), so a publisher either had not
// yet acknowledged the phase — its next Check restarts it and clears the
// HP before any write — or had acknowledged it, after which a fresh
// traversal cannot reach slots retired before the phase (§4; the same
// argument that lets one snapshot cover a whole multi-block drain).
func (t *Thread[T]) snapshotHPs() *smr.SlotSet {
	hp := &t.scratchHP
	if t.snapValid && t.snapPhase == t.localVer {
		return hp
	}
	hp.Reset()
	for _, other := range t.mgr.threads {
		for i := range other.hps {
			w := other.hps[i].Load()
			if lo := uint32(w); lo != 0 {
				hp.Add(lo - 1)
			}
			if hi := uint32(w >> 32); hi != 0 {
				hp.Add(hi - 1)
			}
		}
	}
	hp.Seal()
	t.snapPhase = t.localVer
	t.snapValid = true
	return hp
}

// drain processes the processingPool for phase t.localVer (Algorithm 6
// lines 20–30) and returns how many slots it recycled and re-retired.
// The active ready/re-retire block pointers are resolved once per block
// swap, and generation bumps index the thread's gens slice, so the
// per-slot loop performs no block-table or chunk-table loads. Pops prefer
// the thread's home processing shard and steal from siblings, so
// concurrent drainers of one phase spread across the shards instead of
// convoying on one head word.
func (t *Thread[T]) drain(hp *smr.SlotSet) (uint64, uint64) {
	m := t.mgr
	home := uint32(t.id)
	homeShard := m.process.HomeShard(home)
	readyBlk := pools.NoBlock
	reBlk := pools.NoBlock
	var readyB, reB *pools.Block
	limit := int32(m.cfg.LocalPool)
	// Per-slot counter traffic is batched into locals and published once
	// at the end so the drain loop itself performs no atomic adds.
	var recycled, reRetired uint64
	for {
		blk, shard, st := m.process.PopFrom(m.ba, t.localVer, home, &t.rng)
		if st != pools.StatusOK {
			break // StatusEmpty: phase drained; StatusVerMismatch: superseded
		}
		if trace.Enabled() && shard != homeShard {
			t.ring.Record(trace.EvSteal, uint64(shard))
		}
		b := m.ba.B(blk)
		for i := int32(0); i < b.N; i++ {
			slot := b.Slots[i]
			if hp.Contains(slot) {
				// Protected: back to the retire pool for the next phase.
				if reBlk == pools.NoBlock {
					reBlk = m.ba.Get()
					reB = m.ba.B(reBlk)
				}
				reB.Push(slot)
				reRetired++
				if reB.Full(limit) {
					t.pushRetireAnyPhase(reBlk)
					reBlk = pools.NoBlock
					reB = nil
				}
			} else {
				// Unprotected: recycled. Bump the debug generation so tests
				// can detect (HP/EBR) or account for (OA) stale accesses.
				t.gens[slot].Add(1)
				if readyBlk == pools.NoBlock {
					readyBlk = m.ba.Get()
					readyB = m.ba.B(readyBlk)
				}
				readyB.Push(slot)
				recycled++
				if readyB.Full(limit) {
					m.ready.Push(m.ba, readyBlk, home)
					readyBlk = pools.NoBlock
					readyB = nil
				}
			}
		}
		b.N = 0
		m.ba.Put(blk)
	}
	if readyBlk != pools.NoBlock {
		if readyB.Empty() {
			m.ba.Put(readyBlk)
		} else {
			m.ready.Push(m.ba, readyBlk, home)
		}
	}
	if reBlk != pools.NoBlock {
		if reB.Empty() {
			m.ba.Put(reBlk)
		} else {
			t.pushRetireAnyPhase(reBlk)
		}
	}
	if recycled != 0 {
		t.stats.Add(obs.Recycled, recycled)
	}
	if reRetired != 0 {
		t.stats.Add(obs.ReRetired, reRetired)
	}
	return recycled, reRetired
}

// pushRetireAnyPhase pushes a block of still-protected slots into the
// retirePool at whatever phase it is in, helping freezes along the way.
// Retiring into a later phase is always proper, so unlike Algorithm 6
// line 28 this never abandons slots (see the package deviation note).
func (t *Thread[T]) pushRetireAnyPhase(blk uint32) {
	m := t.mgr
	for {
		ver := m.helpSwap()
		if st := m.retire.Push(m.ba, blk, ver, uint32(t.id)); st == pools.StatusOK {
			return
		}
	}
}
