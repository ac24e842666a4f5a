package guard

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/obs"
	"repro/internal/trace"
)

// The cost model of the "drop the anchor" reclamation scheme (Braginsky,
// Kogan & Petrank, SPAA 2013), the third competitor of the paper's
// linked-list evaluation.
//
// The real anchors scheme publishes a hazard pointer (the anchor) once per
// K reads and recovers stalled traversals by freezing the anchored list
// segment. The freeze/recovery machinery is a full project of its own; as
// announced in DESIGN.md, this file reproduces the scheme's *measured cost
// structure* with a simpler safety argument:
//
//   - Traversals publish an anchor (one atomic store, which is the fence
//     the scheme amortizes) every K node visits, and validate the anchor
//     after publication, restarting the traversal from the head if the
//     anchored node was already unlinked — the analogue of anchor recovery.
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

// visits is the part of a guard a traversal touches on every Anchors node
// visit, plus the counter block and trace ring that every scheme's guard
// uses through it. It is not generic, so the generic Visit hook's call to
// visit passes no generics dictionary; that keeps the hook within the
// inliner's budget.
type visits struct {
	k, sinceHP int
	anchor     atomic.Uint64 // anchored slot+1; 0 = none
	stats      *obs.PerThread
	ring       *trace.Ring // protocol event ring (gated on trace.Enabled)
}

// retiredSlot is a retired slot and the era it was retired in.
type retiredSlot struct {
	slot uint32
	era  uint64
}

// visit counts one visit of cur, reached through the word *src. Every K
// visits it drops an anchor on cur: one sequentially consistent store (the
// amortized fence). It then validates the anchor: if *src no longer leads
// to cur, it counts a restart and returns false, and the structure must
// restart from the head (the recovery analogue). visit stays out of line:
// inlined, it would push the Visit hook past the budget.
//
//go:noinline
func (v *visits) visit(cur arena.Ptr, src *atomic.Uint64) bool {
	v.sinceHP++
	return v.sinceHP < v.k || v.drop(cur, src)
}

func (v *visits) drop(cur arena.Ptr, src *atomic.Uint64) bool {
	v.sinceHP = 0
	if cur.IsNil() {
		v.anchor.Store(0)
		return true
	}
	v.anchor.Store(uint64(cur.Unmark().Slot()) + 1)
	if arena.Ptr(src.Load()).Unmark() == cur.Unmark() {
		return true
	}
	v.countRestart(trace.CauseAnchor)
	return false
}

// countRestart accounts a validation failure that restarts a traversal.
func (v *visits) countRestart(cause trace.Cause) {
	v.stats.Inc(obs.Restarts)
	if trace.Enabled() {
		v.ring.Record(trace.EvRestart, uint64(cause))
	}
}

// retireAnchors buffers slot with the current era and triggers a scan at
// the threshold. If another thread holds the scan lock the buffer simply
// keeps growing — retire never blocks.
func (g *Guard[N]) retireAnchors(slot uint32) {
	m := g.m
	g.buf = append(g.buf, retiredSlot{slot: slot, era: m.clock.Load()})
	if len(g.buf) >= m.scanThreshold {
		m.retMu.Lock()
		m.retired = append(m.retired, g.buf...)
		m.retMu.Unlock()
		g.buf = g.buf[:0]
		g.scanAnchors()
	}
}

// scanAnchors runs one reclamation pass if the scan lock is free. Each
// pass bumps the era.
func (g *Guard[N]) scanAnchors() {
	m := g.m
	if !m.scanMu.TryLock() {
		return
	}
	defer m.scanMu.Unlock()
	era := m.clock.Add(1)
	if trace.Enabled() {
		g.ring.Record(trace.EvPhase, era)
	}

	// Protected set 1: nodes within K hops of any anchor, collected into
	// the reusable sorted set (the batch below probes it once per retired
	// slot, so binary search beats map hashing).
	protected := &m.protected
	protected.Reset()
	for _, o := range m.guards {
		a := o.anchor.Load()
		if a == 0 {
			continue
		}
		p := arena.MakePtr(uint32(a - 1))
		for hop := 0; hop <= g.k && !p.IsNil(); hop++ {
			protected.Add(p.Unmark().Slot())
			p = arena.Ptr(m.next(m.pool.nodes.At(p.Unmark().Slot())).Load())
		}
	}
	protected.Seal()
	// Condition 2: a node is freeable only when retired before every
	// currently running operation's era (grace period).
	minEra := era
	for _, o := range m.guards {
		w := o.state.Load()
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
		if !protected.Contains(r.slot) && r.era < minEra {
			g.free(r.slot)
			recycled++
		} else {
			kept = append(kept, r)
			reRetired++
		}
	}
	g.stats.Add(obs.Recycled, recycled)
	g.stats.Add(obs.ReRetired, reRetired)
	g.flush()
	m.retMu.Lock()
	m.retired = append(m.retired, kept...)
	m.retMu.Unlock()
	if trace.Enabled() {
		g.ring.Record(trace.EvDrain, trace.DrainPayload(recycled, reRetired))
	}
}
