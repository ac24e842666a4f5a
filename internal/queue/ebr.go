package queue

import (
	"repro/internal/arena"
	"repro/internal/ebr"
	"repro/internal/smr"
)

// EBRQueue is the Michael-Scott queue under epoch-based reclamation.
type EBRQueue struct {
	mgr *ebr.Manager[Node]
	roots
}

// NewEBR builds an empty queue sized by cfg.
func NewEBR(cfg ebr.Config) *EBRQueue {
	q := &EBRQueue{mgr: ebr.NewManager[Node](cfg, ResetNode)}
	q.init(q.mgr.Thread(0).Alloc())
	return q
}

// Manager exposes the underlying manager.
func (q *EBRQueue) Manager() *ebr.Manager[Node] { return q.mgr }

// Scheme implements smr.Queue.
func (q *EBRQueue) Scheme() smr.Scheme { return smr.EBR }

// Stats implements smr.Queue.
func (q *EBRQueue) Stats() smr.Stats { return q.mgr.Stats() }

// QueueSession implements smr.Queue.
func (q *EBRQueue) QueueSession(tid int) smr.QueueSession {
	t := q.mgr.Thread(tid)
	return &ebrQSession{plain: plainQSession{r: &q.roots, view: t.View(), mem: t, pending: arena.NoSlot}, t: t}
}

// ebrQSession is the plain queue inside the epoch bracket: nothing
// reachable when OnOpStart announced can be freed until OnOpEnd.
type ebrQSession struct {
	plain plainQSession
	t     *ebr.Thread[Node]
}

func (s *ebrQSession) Enqueue(v uint64) {
	s.t.OnOpStart()
	defer s.t.OnOpEnd()
	s.plain.Enqueue(v)
}

func (s *ebrQSession) Dequeue() (uint64, bool) {
	s.t.OnOpStart()
	defer s.t.OnOpEnd()
	return s.plain.Dequeue()
}
