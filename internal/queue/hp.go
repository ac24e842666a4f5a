package queue

import (
	"repro/internal/arena"
	"repro/internal/hpscheme"
	"repro/internal/smr"
)

// HPQueue is the Michael-Scott queue under hazard pointers — the worked
// example of Michael's TPDS 2004 paper, using two hazard pointers.
type HPQueue struct {
	mgr *hpscheme.Manager[Node]
	roots
}

// NewHP builds an empty queue sized by cfg.
func NewHP(cfg hpscheme.Config) *HPQueue {
	cfg.HPsPerThread = 2
	q := &HPQueue{mgr: hpscheme.NewManager[Node](cfg, ResetNode)}
	q.init(q.mgr.Thread(0).Alloc())
	return q
}

// Manager exposes the underlying manager.
func (q *HPQueue) Manager() *hpscheme.Manager[Node] { return q.mgr }

// Scheme implements smr.Queue.
func (q *HPQueue) Scheme() smr.Scheme { return smr.HP }

// Stats implements smr.Queue.
func (q *HPQueue) Stats() smr.Stats { return q.mgr.Stats() }

// QueueSession implements smr.Queue.
func (q *HPQueue) QueueSession(tid int) smr.QueueSession {
	return &hpQSession{q: q, t: q.mgr.Thread(tid), pending: arena.NoSlot}
}

type hpQSession struct {
	q       *HPQueue
	t       *hpscheme.Thread[Node]
	pending uint32
}

// Enqueue follows Michael's published HP protocol: protect last, validate
// tail unchanged, then operate.
func (s *hpQSession) Enqueue(v uint64) {
	th := s.t
	if s.pending == arena.NoSlot {
		s.pending = th.Alloc()
	}
	n := th.Node(s.pending)
	n.Val.Store(v)
	n.Next.Store(0)
	newPtr := arena.MakePtr(s.pending)
	for {
		last := arena.Ptr(s.q.tail.Load())
		th.Protect(0, last)
		if arena.Ptr(s.q.tail.Load()) != last {
			th.CountRestart()
			continue
		}
		next := arena.Ptr(th.Node(last.Slot()).Next.Load())
		if arena.Ptr(s.q.tail.Load()) != last {
			th.CountRestart()
			continue
		}
		if !next.IsNil() {
			s.q.tail.CompareAndSwap(uint64(last), uint64(next))
			continue
		}
		if th.Node(last.Slot()).Next.CompareAndSwap(0, uint64(newPtr)) {
			s.q.tail.CompareAndSwap(uint64(last), uint64(newPtr))
			th.ClearAll()
			s.pending = arena.NoSlot
			return
		}
		th.CountRestart()
	}
}

// Dequeue follows Michael's published HP protocol with hp0=first, hp1=next.
func (s *hpQSession) Dequeue() (uint64, bool) {
	th := s.t
	for {
		first := arena.Ptr(s.q.head.Load())
		th.Protect(0, first)
		if arena.Ptr(s.q.head.Load()) != first {
			th.CountRestart()
			continue
		}
		last := arena.Ptr(s.q.tail.Load())
		next := arena.Ptr(th.Node(first.Slot()).Next.Load())
		th.Protect(1, next)
		if arena.Ptr(s.q.head.Load()) != first {
			th.CountRestart()
			continue
		}
		if first == last {
			if next.IsNil() {
				th.ClearAll()
				return 0, false
			}
			s.q.tail.CompareAndSwap(uint64(last), uint64(next))
			continue
		}
		v := th.Node(next.Slot()).Val.Load()
		if s.q.head.CompareAndSwap(uint64(first), uint64(next)) {
			th.ClearAll()
			th.Retire(first.Slot())
			return v, true
		}
		th.CountRestart()
	}
}
