package queue

import (
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/oakit"
	"repro/internal/obs"
	"repro/internal/smr"
)

// OAQueue is the Michael-Scott queue under optimistic access: the kit's
// queue (oakit.Enqueue, Head, Take) over a one-word payload. Operations
// execute at most one executor CAS (C = 1), so three owner hazard
// pointers suffice; the post-link tail swing runs while the owner hazard
// pointers still pin its operands, which also rules out tail-word ABA.
type OAQueue struct {
	kit *oakit.Engine[Node]
	q   oakit.Queue
}

// NewOA builds an empty queue sized by cfg.
func NewOA(cfg core.Config) *OAQueue {
	q := &OAQueue{kit: oakit.NewEngine(cfg, ResetNode, 3)}
	q.q.Init(q.kit.NewRoot())
	return q
}

// Manager exposes the underlying optimistic access manager.
func (q *OAQueue) Manager() *core.Manager[Node] { return q.kit.Manager() }

// Scheme implements smr.Queue.
func (q *OAQueue) Scheme() smr.Scheme { return smr.OA }

// Stats implements smr.Queue.
func (q *OAQueue) Stats() smr.Stats { return q.kit.Stats() }

// RegisterObs implements obs.Registrar by forwarding to the core manager.
func (q *OAQueue) RegisterObs(reg *obs.Registry) { q.kit.RegisterObs(reg) }

// QueueSession implements smr.Queue.
func (q *OAQueue) QueueSession(tid int) smr.QueueSession {
	return &oaQSession{q: &q.q, c: q.kit.Ctx(tid)}
}

type oaQSession struct {
	q *oakit.Queue
	c *oakit.Ctx[Node]
}

// Enqueue appends v. The node is private until the link CAS publishes
// it, so it is allocated and initialised once, before the generator.
func (s *oaQSession) Enqueue(v uint64) {
	slot := s.c.Th.Alloc()
	n := s.c.Node(slot)
	n.V.Store(v)
	n.Next.Store(arena.NilPtr)
	oakit.Enqueue(s.c, s.q, arena.MakePtr(slot))
}

// Dequeue removes the head value. The value is read between the kit's
// generator and its commit, whose seal validates it.
func (s *oaQSession) Dequeue() (uint64, bool) {
	for {
		first, next, empty, restart := oakit.Head(s.c, s.q)
		if restart {
			continue
		}
		if empty {
			return 0, false
		}
		v := s.c.Node(next.Slot()).V.Load()
		if oakit.Take(s.c, s.q, first, next) {
			return v, true
		}
	}
}
