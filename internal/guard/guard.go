// Package guard lets a structure write its original algorithm once and run
// it under NoRecl, EBR, HP and Anchors. (OA runs the structure's normalized
// form on package oakit instead.) It is Brown's Record Manager ("There Has
// to Be a Better Way"): one Manager per structure, one object pool (pool.go)
// that every scheme allocates from, and one reclamation rule per scheme —
// NoRecl in this file, EBR in ebr.go, HP in hp.go, Anchors in anchors.go.
// Each thread of the structure holds one Guard, which is that thread's
// scheme context. The traversal calls the Guard's hooks at fixed places, and
// a hook does nothing for a scheme that does not need it:
//
//	          Begin          per hop                        End
//	NoRecl    —              —                              —
//	EBR       announce       —                              quiesce
//	HP        —              publish, re-read the source    clear hazard pointers
//	Anchors   announce era   one anchor per K visits        clear anchor, quiesce
//
// The structure places the hooks, the scheme decides what they cost. The
// Guard is deliberately not a type parameter of the traversal. Go compiles
// generic code once per GC shape and calls a type parameter's methods
// through the dictionary, which is an indirect call per hook. The methods
// of the concrete Guard[N] inline into the traversal, and under NoRecl each
// is one check of the scheme tag. What a hook does for its own scheme may be
// a call — End's work, a retire, the Anchors anchor drop — so that the hook
// fits the inliner's budget.
//
// One choice cannot be a per-hop hook. The original Contains of the list
// and skip list steps over marked nodes without helping. Hazard pointers
// cannot vouch for a marked node's successor (SCOT), so under HP a Contains
// runs the structure's helping search instead. Callers ask HP once, at
// operation entry.
//
// NoRecl is the paper's baseline: allocation from the pool, retire as a
// no-op that only counts. It is the throughput denominator of every ratio
// the evaluation reports. Memory grows without bound, which is exactly the
// behaviour the paper ascribes to it ("only applicable to short-running
// programs", §1).
package guard

import (
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/obs"
	"repro/internal/pools"
	"repro/internal/sizing"
	"repro/internal/smr"
	"repro/internal/trace"
)

// Spec is what New needs to know about a structure.
type Spec[N any] struct {
	// Name names the structure in the unsupported-scheme error.
	Name string
	// Reset zeroes a node at allocation.
	Reset func(*N)
	// HPs is the number of hazard pointers per thread under HP (3 for
	// the linked list, 2·MAXLEVEL+3 for the skip list, §5).
	HPs int
	// Next returns a node's successor word, which the anchors reclaimer
	// walks from each anchor. Nil means the structure has no Anchors
	// variant; as in the paper, only the list has one.
	Next func(*N) *atomic.Uint64
}

// Manager is one structure's scheme manager: the pool, the guards, the
// counters, and the state a scheme's reclaimer shares across threads.
type Manager[N any] struct {
	sc     smr.Scheme
	guards []*Guard[N]
	pool   pool[N]
	stats  *obs.ThreadStats
	tracer *trace.Recorder
	// clock is EBR's global epoch and Anchors' era. Begin announces it.
	clock atomic.Uint64
	// opsPerScan is EBR's q: a thread attempts an epoch advance every q
	// operations (Figure 3 sets q = 10·δ/threads).
	opsPerScan int
	// scanThreshold is HP's R (Figure 3 sets it to δ/threads) and the
	// buffered retires that trigger an Anchors scan.
	scanThreshold int
	// Anchors' reclaimer; see anchors.go.
	next      func(*N) *atomic.Uint64
	scanMu    sync.Mutex
	retMu     sync.Mutex    // guards the handoff of guard buffers into retired
	retired   []retiredSlot // owned by the scanMu holder
	protected smr.SlotSet   // the scanMu holder's anchored-segment set
}

// New builds the manager of scheme sc, sized by c. Zero fields of c take
// the scheme's default.
func New[N any](sc smr.Scheme, c sizing.Config, s Spec[N]) (*Manager[N], error) {
	if sc != smr.NoRecl && sc != smr.EBR && sc != smr.HP && (sc != smr.Anchors || s.Next == nil) {
		return nil, sizing.Unsupported(s.Name, sc)
	}
	threads := max(c.MaxThreads, 1)
	m := &Manager[N]{
		sc:            sc,
		stats:         obs.NewThreadStats(threads),
		tracer:        trace.NewRecorder(threads, 0),
		opsPerScan:    c.OpsPerScan,
		scanThreshold: c.ScanThreshold,
		next:          s.Next,
	}
	m.pool.init(c.Capacity, c.LocalPool, s.Reset)
	k := 0
	switch sc {
	case smr.EBR:
		if m.opsPerScan <= 0 {
			m.opsPerScan = 128
		}
	case smr.HP:
		if m.scanThreshold <= 0 {
			// Michael's guidance: R > H = threads · HPs, with headroom.
			m.scanThreshold = 2*threads*s.HPs + 64
		}
	case smr.Anchors:
		k = c.AnchorsK
		if k <= 0 {
			k = 1000 // the paper's K
		}
		if m.scanThreshold <= 0 {
			m.scanThreshold = 256
		}
	}
	m.guards = make([]*Guard[N], threads)
	for i := range m.guards {
		g := &Guard[N]{View: m.pool.nodes.View(), sc: sc, m: m, allocBlk: pools.NoBlock, freeBlk: pools.NoBlock}
		g.visits = visits{k: k, stats: m.stats.At(i), ring: m.tracer.Ring(i)}
		if sc == smr.HP {
			g.hps = make([]atomic.Uint64, s.HPs)
			g.retired = make([]uint32, 0, m.scanThreshold+8)
		}
		m.guards[i] = g
	}
	return m, nil
}

// Scheme reports the scheme the manager runs.
func (m *Manager[N]) Scheme() smr.Scheme { return m.sc }

// Guard returns the guard of thread context id.
func (m *Manager[N]) Guard(id int) *Guard[N] { return m.guards[id] }

// Arena exposes node storage.
func (m *Manager[N]) Arena() *arena.Arena[N] { return m.pool.nodes }

// Stats aggregates counters across threads. The counter blocks are atomic,
// so Stats may run while workers do (monitoring endpoints, harness
// snapshots). Phases is the epoch under EBR, the era under Anchors (which
// bumps it once per scan) and the scan count under HP.
func (m *Manager[N]) Stats() smr.Stats {
	tot := m.stats.Totals()
	s := smr.Stats{
		Allocs:    tot[obs.Allocs],
		Retires:   tot[obs.Retires],
		Recycled:  tot[obs.Recycled],
		ReRetired: tot[obs.ReRetired],
		Restarts:  tot[obs.Restarts],
		Phases:    m.clock.Load(),
	}
	if m.sc == smr.HP {
		s.Phases = tot[obs.DrainPasses]
	}
	return s
}

// RegisterObs implements obs.Registrar: the scheme's only deep source is
// its event trace (epoch advances, era bumps, restarts, scan passes and
// pool refills); counters flow through Stats.
func (m *Manager[N]) RegisterObs(reg *obs.Registry) { reg.Trace(m.tracer) }

// Guard is one thread's scheme context. It is used by one goroutine at a
// time; other threads' reclaimers read its announce word, hazard pointers
// and anchor.
type Guard[N any] struct {
	// View is the guard's node view: every node dereference goes
	// through it.
	View arena.View[N]
	sc   smr.Scheme
	m    *Manager[N]
	visits
	// state is the announce word {clock:63 | active:1}: EBR announces its
	// epoch in it, Anchors its era. Written by the owner at operation
	// boundaries, read by epoch advancers and scanners.
	state atomic.Uint64
	// allocBlk and freeBlk are the guard's blocks of the pool.
	allocBlk, freeBlk uint32

	limbo [3][]uint32 // EBR: retired slots by epoch % 3
	ops   int         // EBR: operations since the last advance attempt

	hps     []atomic.Uint64 // HP: slot+1; 0 = empty
	retired []uint32        // HP: local retired list awaiting scan
	scratch smr.SlotSet     // HP: reused sorted hazard-pointer snapshot

	buf []retiredSlot // Anchors: retires buffered until the threshold

	_ [64]byte // false-sharing pad
}

// Alloc returns a zeroed slot from the pool (pool.go).
func (g *Guard[N]) Alloc() uint32 { return g.alloc() }

// Retire hands an unlinked slot to the scheme. NoRecl only counts it: the
// slot is never reused. The work is out of line so that Retire inlines.
func (g *Guard[N]) Retire(slot uint32) { g.retire(slot) }

func (g *Guard[N]) retire(slot uint32) {
	g.stats.Inc(obs.Retires)
	switch g.sc {
	case smr.EBR:
		g.retireEBR(slot)
	case smr.HP:
		g.retireHP(slot)
	case smr.Anchors:
		g.retireAnchors(slot)
	}
}

// HP reports whether the thread runs under hazard pointers, for the one
// choice made at operation entry (see the package comment).
func (g *Guard[N]) HP() bool { return g.sc == smr.HP }

// Begin opens an operation: EBR announces the epoch, Anchors the era. The
// announcement's atomic store is the fence the paper charges EBR per
// operation. Anchors also forces an anchor on the first visit.
func (g *Guard[N]) Begin() {
	if g.sc == smr.EBR || g.sc == smr.Anchors {
		g.state.Store(g.m.clock.Load()<<1 | 1)
		g.sinceHP = g.k
	}
}

// End closes an operation: HP clears its hazard pointers, EBR and Anchors
// go quiescent. The work is out of line so that End inlines.
func (g *Guard[N]) End() {
	if g.sc != smr.NoRecl {
		g.end()
	}
}

// end stays out of line: inlined, it would push End past the budget.
//
//go:noinline
func (g *Guard[N]) end() {
	if g.sc == smr.HP {
		g.clearHPs()
		return
	}
	if g.sc == smr.Anchors {
		g.anchor.Store(0)
	}
	g.state.Store(g.state.Load() &^ 1)
	if g.sc == smr.EBR {
		g.ops++
		if g.ops >= g.m.opsPerScan {
			g.ops = 0
			g.reclaimEBR()
		}
	}
}

// Clear drops HP's hazard pointers inside an operation.
func (g *Guard[N]) Clear() {
	if g.sc == smr.HP {
		g.clearHPs()
	}
}

// Protect publishes HP hazard pointer i on p, with no validation: p is
// already known to be safe (a node this thread just validated or owns).
func (g *Guard[N]) Protect(i int, p arena.Ptr) {
	if g.sc == smr.HP {
		g.protect(i, p)
	}
}

// Validate publishes HP hazard pointer i on p and reports whether *src
// still holds want. If it does not, the traversal must restart. It always
// reports true under the other schemes.
func (g *Guard[N]) Validate(i int, p arena.Ptr, src *atomic.Uint64, want arena.Ptr) bool {
	if g.sc != smr.HP {
		return true
	}
	g.protect(i, p)
	return arena.Ptr(src.Load()) == want
}

// Visit counts one Anchors node visit of cur, reached through *src. On
// every K-th visit it drops an anchor on cur and reports false if *src no
// longer leads to cur; the traversal must then restart. It always reports
// true under the other schemes.
func (g *Guard[N]) Visit(cur arena.Ptr, src *atomic.Uint64) bool {
	return g.sc != smr.Anchors || g.visits.visit(cur, src)
}

// Restart counts an HP traversal restart. The Anchors restart is counted
// by Visit; the other schemes count none.
func (g *Guard[N]) Restart() {
	if g.sc == smr.HP {
		g.countRestart(trace.CauseValidate)
	}
}
