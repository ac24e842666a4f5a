// Package mpmc is a bounded multi-producer/multi-consumer queue of
// fixed-size multi-word payloads under the optimistic-access scheme —
// the work-distribution structure the ROADMAP asks OA to prove itself
// on, and the server's per-shard request ring.
//
// Internally each queue is the kit's Michael-Scott queue (oakit.Enqueue,
// Head, Take — the same generator internal/queue runs with a one-word
// payload) over an eight-word payload, plus an atomic length word that
// enforces the bound: TryEnqueue reserves a length credit before
// touching the structure and refuses when none is left, so
// the bound is conservative — a full answer can race a concurrent
// dequeue, but the queue never exceeds its capacity. A linked queue
// bounded by a counter, rather than an array ring, is what lets the OA
// machinery do the memory management: nodes are arena slots recycled
// through the ordinary retire → warning → drain pipeline, and a slot
// held by a lagging consumer's hazard pointer is simply re-retired.
//
// Several queues share one Group: one arena, one session registry, one
// reclamation phase. A session leased from the group can produce to or
// consume from any of its queues — the server leases one producer
// session per connection (not one per (connection, queue)) and one
// consumer session per executor.
package mpmc

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/oakit"
	"repro/internal/obs"
	"repro/internal/smr"
)

// PayloadWords is the fixed payload width in 64-bit words. Eight words
// fit a routed server request (metadata, id, key, operands, timestamps)
// and keep a node at 72 bytes — just over a cache line.
const PayloadWords = 8

// Payload is one queue element. Values pass by pointer through
// TryEnqueue/Dequeue so the hot path stays allocation-free.
type Payload [PayloadWords]uint64

// Node is the queue node: the kit's queue node with an eight-word
// payload; all fields atomic (stale reads under OA).
type Node = oakit.QNode[[PayloadWords]atomic.Uint64]

// resetNode is the allocation hook, and does nothing: TryEnqueue stores
// every word of a node it allocates — the eight payload words and a nil
// Next — before the link CAS publishes it, so a memset at Alloc would
// write all nine words twice. The only other allocations are the
// sentinels NewGroup takes from the fresh, zeroed arena. What a recycled
// slot still holds until then is exactly what OA already tolerates:
// stale readers may load it, and a warning check rejects the value
// before use.
func resetNode(*Node) {}

// Group owns a set of bounded queues sharing one OA manager. All
// sentinels and elements live in the group's arena.
type Group struct {
	kit      *oakit.Engine[Node]
	queues   []Queue
	sessions []*Session
}

// Queue is one bounded MPMC queue of a Group: the kit queue's two root
// words (never recycled) and the bound credit counter.
type Queue struct {
	oakit.Queue
	length atomic.Int64 // reserved elements, counted before linking
	bound  int64
	_      [96]byte // keep adjacent queues' hot words on separate lines
}

// NewGroup builds n bounded queues of capacity bound each, backed by one
// manager sized from cfg. cfg.Capacity is raised, if needed, to hold
// every queue full plus the local-pool float the thread contexts need to
// make allocation progress.
func NewGroup(cfg core.Config, n, bound int) *Group {
	if n < 1 {
		n = 1
	}
	if bound < 1 {
		bound = 1
	}
	if cfg.LocalPool <= 0 {
		// Ring traffic is small and bursty; a modest transfer block keeps
		// the arena floor (2·MaxThreads·LocalPool) reasonable even with a
		// producer context per connection.
		cfg.LocalPool = 16
	}
	if min := n*(bound+2) + 2*cfg.MaxThreads*cfg.LocalPool; cfg.Capacity < min {
		cfg.Capacity = min
	}
	g := &Group{
		kit:      oakit.NewEngine(cfg, resetNode, 3),
		queues:   make([]Queue, n),
		sessions: make([]*Session, cfg.MaxThreads),
	}
	for i := range g.queues {
		q := &g.queues[i]
		q.bound = int64(bound)
		q.Init(g.kit.NewRoot())
	}
	for i := range g.sessions {
		g.sessions[i] = &Session{c: g.kit.Ctx(i)}
	}
	return g
}

// Queues returns how many queues the group holds.
func (g *Group) Queues() int { return len(g.queues) }

// Queue returns queue i.
func (g *Group) Queue(i int) *Queue { return &g.queues[i] }

// Manager exposes the underlying optimistic access manager (stats,
// lessor, trace recorder).
func (g *Group) Manager() *core.Manager[Node] { return g.kit.Manager() }

// Stats reports the group's reclamation counters.
func (g *Group) Stats() smr.Stats { return g.kit.Stats() }

// RegisterObs forwards to the core manager.
func (g *Group) RegisterObs(reg *obs.Registry) { g.kit.RegisterObs(reg) }

// Session returns the fixed-slot session for thread context tid —
// usable on every queue of the group. Session structs are built once
// per context, so leasing allocates nothing.
func (g *Group) Session(tid int) *Session { return g.sessions[tid] }

// Acquire leases a free thread context and returns its session. Fails
// with lease.ErrNoFreeSessions when all contexts are leased and
// lease.ErrClosed after Close.
func (g *Group) Acquire() (*Session, error) {
	c, err := g.kit.Acquire()
	if err != nil {
		return nil, err
	}
	return g.sessions[c.TID()], nil
}

// Close marks the session registry closed; outstanding sessions stay
// valid until released.
func (g *Group) Close() { g.kit.Close() }

// Len returns the queue's current element count (reservations included,
// so it can transiently exceed the number of linked elements, never the
// bound).
func (q *Queue) Len() int {
	n := q.length.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}

// Cap returns the queue's bound.
func (q *Queue) Cap() int { return int(q.bound) }

// Session is one leased thread context of the group. A session may be
// used by one goroutine at a time, on any of the group's queues.
type Session struct {
	c *oakit.Ctx[Node]
}

// TID returns the session's thread context id.
func (s *Session) TID() int { return s.c.TID() }

// Release returns the session's thread context to the free pool; it
// panics on double release (the kit's guard).
func (s *Session) Release() { s.c.Release() }

// TryEnqueue appends *p to q, or reports false immediately when the
// queue is at capacity. Once the length credit is reserved the enqueue
// is lock-free and always completes.
func (s *Session) TryEnqueue(q *Queue, p *Payload) bool {
	// Reserve by CAS, not add-then-roll-back: a refused producer must
	// never push the counter past the bound, even transiently, or Len
	// (the ring-depth gauge) reports a depth the ring cannot have.
	for {
		n := q.length.Load()
		if n >= q.bound {
			return false
		}
		if q.length.CompareAndSwap(n, n+1) {
			break
		}
	}
	c := s.c
	// The node is private to this session until the link CAS publishes
	// it, so it is initialised once here, not per attempt.
	slot := c.Th.Alloc()
	n := c.Node(slot)
	for i, w := range p {
		n.V[i].Store(w)
	}
	n.Next.Store(arena.NilPtr)
	oakit.Enqueue(c, &q.Queue, arena.MakePtr(slot))
	return true
}

// Dequeue removes the oldest element into *p, reporting false when the
// queue is empty. The payload words are read optimistically from the
// successor node between the kit's generator and its commit, whose seal
// validates them, so a recycled node's new occupant is never returned.
func (s *Session) Dequeue(q *Queue, p *Payload) bool {
	c := s.c
	for {
		first, next, empty, restart := oakit.Head(c, &q.Queue)
		if restart {
			continue
		}
		if empty {
			return false
		}
		n := c.Node(next.Slot())
		for i := range p {
			p[i] = n.V[i].Load()
		}
		if oakit.Take(c, &q.Queue, first, next) {
			q.length.Add(-1)
			return true
		}
	}
}
