package queue

import (
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/oakit"
	"repro/internal/obs"
	"repro/internal/smr"
)

// OAQueue is the Michael-Scott queue under optimistic access, on the
// oakit barriers. Operations execute at most one executor CAS (C = 1), so
// three owner hazard pointers suffice; the post-link tail swing runs
// while the owner hazard pointers still pin its operands, which also
// rules out tail-word ABA.
type OAQueue struct {
	kit *oakit.Engine[Node]
	roots
}

// NewOA builds an empty queue sized by cfg.
func NewOA(cfg core.Config) *OAQueue {
	q := &OAQueue{kit: oakit.NewEngine(cfg, ResetNode, 3)}
	q.init(q.kit.NewRoot())
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
	return &oaQSession{q: q, c: q.kit.Ctx(tid)}
}

type oaQSession struct {
	q *OAQueue
	c *oakit.Ctx[Node]
}

// Enqueue appends v (normalized: generator finds the tail cell and emits
// the single link CAS; wrap-up swings the tail on success).
func (s *oaQSession) Enqueue(v uint64) {
	c, q := s.c, s.q
	for {
		// --- CAS generator ---
		last := arena.Ptr(q.tail.Load())
		if c.Check() {
			continue
		}
		next := arena.Ptr(c.Node(last.Slot()).Next.Load())
		tailNow := arena.Ptr(q.tail.Load())
		if c.Check() {
			continue
		}
		if tailNow != last {
			continue
		}
		if !next.IsNil() {
			// Tail lags: help swing (the target is a root, the operands
			// are node handles — oakit.HelpCAS), then retry.
			c.HelpCAS(&q.tail, last, next)
			continue
		}
		newPtr := arena.MakePtr(c.Pending())
		n := c.Node(newPtr.Slot())
		n.Val.Store(v)
		n.Next.Store(0)
		// --- executor + wrap-up: O=last, A3=new node ---
		if !c.Commit(&c.Node(last.Slot()).Next, 0, uint64(newPtr), last, newPtr, arena.NilPtr) {
			continue
		}
		c.ConsumePending()
		// Swing the tail while the owner hazard pointers still pin last
		// and newPtr (no ABA window).
		q.tail.CompareAndSwap(uint64(last), uint64(newPtr))
		return
	}
}

// Dequeue removes the head value (normalized: generator reads the value
// and emits the head-swing CAS; the winner retires the old sentinel).
func (s *oaQSession) Dequeue() (uint64, bool) {
	c, q := s.c, s.q
	for {
		// --- CAS generator ---
		first := arena.Ptr(q.head.Load())
		last := arena.Ptr(q.tail.Load())
		if c.Check() {
			continue
		}
		next := arena.Ptr(c.Node(first.Slot()).Next.Load())
		headNow := arena.Ptr(q.head.Load())
		if c.Check() {
			continue
		}
		if headNow != first {
			continue
		}
		if first == last {
			if next.IsNil() {
				// Empty: the generator returns a zero-length CAS list and
				// the wrap-up reports emptiness — but only if the reads
				// above were not stale.
				if c.Check() {
					continue
				}
				return 0, false
			}
			c.HelpCAS(&q.tail, last, next)
			continue
		}
		v := c.Node(next.Slot()).Val.Load()
		if c.Check() {
			continue
		}
		// --- executor + wrap-up: A2=first, A3=next; the target is a root ---
		if !c.Commit(&q.head, uint64(first), uint64(next), first, next, arena.NilPtr) {
			continue
		}
		c.Th.Retire(first.Slot()) // the old sentinel: unlinked, single retirer
		return v, true
	}
}
