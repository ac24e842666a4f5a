package queue

import (
	"repro/internal/arena"
	"repro/internal/norecl"
	"repro/internal/smr"
)

// plainMem is what the plain queue needs of a scheme thread beyond its
// view: a slot to link and a place to send an unlinked one.
type plainMem interface {
	Alloc() uint32
	Retire(slot uint32)
}

// plainQSession is the Michael-Scott queue with no barrier at all: raw
// loads through the thread's directory view. It is the whole of NoRecl
// and, inside an epoch bracket, the whole of EBR (ebr.go).
type plainQSession struct {
	r       *roots
	view    *arena.View[Node]
	mem     plainMem
	pending uint32
}

func (s *plainQSession) Enqueue(v uint64) {
	if s.pending == arena.NoSlot {
		s.pending = s.mem.Alloc()
	}
	n := s.view.At(s.pending)
	n.Val.Store(v)
	n.Next.Store(0)
	newPtr := arena.MakePtr(s.pending)
	for {
		last := arena.Ptr(s.r.tail.Load())
		next := arena.Ptr(s.view.At(last.Slot()).Next.Load())
		if arena.Ptr(s.r.tail.Load()) != last {
			continue
		}
		if !next.IsNil() {
			s.r.tail.CompareAndSwap(uint64(last), uint64(next))
			continue
		}
		if s.view.At(last.Slot()).Next.CompareAndSwap(0, uint64(newPtr)) {
			s.r.tail.CompareAndSwap(uint64(last), uint64(newPtr))
			s.pending = arena.NoSlot
			return
		}
	}
}

func (s *plainQSession) Dequeue() (uint64, bool) {
	for {
		first := arena.Ptr(s.r.head.Load())
		last := arena.Ptr(s.r.tail.Load())
		next := arena.Ptr(s.view.At(first.Slot()).Next.Load())
		if arena.Ptr(s.r.head.Load()) != first {
			continue
		}
		if first == last {
			if next.IsNil() {
				return 0, false
			}
			s.r.tail.CompareAndSwap(uint64(last), uint64(next))
			continue
		}
		v := s.view.At(next.Slot()).Val.Load()
		if s.r.head.CompareAndSwap(uint64(first), uint64(next)) {
			s.mem.Retire(first.Slot())
			return v, true
		}
	}
}

// NoReclQueue is the Michael-Scott queue without reclamation.
type NoReclQueue struct {
	mgr *norecl.Manager[Node]
	roots
}

// NewNoRecl builds an empty queue sized by cfg.
func NewNoRecl(cfg norecl.Config) *NoReclQueue {
	q := &NoReclQueue{mgr: norecl.NewManager[Node](cfg, ResetNode)}
	q.init(q.mgr.Thread(0).Alloc())
	return q
}

// Manager exposes the underlying manager.
func (q *NoReclQueue) Manager() *norecl.Manager[Node] { return q.mgr }

// Scheme implements smr.Queue.
func (q *NoReclQueue) Scheme() smr.Scheme { return smr.NoRecl }

// Stats implements smr.Queue.
func (q *NoReclQueue) Stats() smr.Stats { return q.mgr.Stats() }

// QueueSession implements smr.Queue: the plain queue itself.
func (q *NoReclQueue) QueueSession(tid int) smr.QueueSession {
	t := q.mgr.Thread(tid)
	return &plainQSession{r: &q.roots, view: t.View(), mem: t, pending: arena.NoSlot}
}
