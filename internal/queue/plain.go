package queue

import (
	"repro/internal/arena"
	"repro/internal/guard"
	"repro/internal/smr"
)

// guarded is the Michael-Scott queue under NoRecl, EBR or HP: the original
// algorithm, driven by each thread's guard. Under HP it is the worked
// example of Michael's TPDS 2004 paper, with two hazard pointers.
type guarded struct {
	*guard.Manager[Node]
	roots
}

func newGuarded(m *guard.Manager[Node]) *guarded {
	q := &guarded{Manager: m}
	g := m.Guard(0)
	q.init(g.Alloc())
	return q
}

// QueueSession implements smr.Queue.
func (q *guarded) QueueSession(tid int) smr.QueueSession {
	return &session{r: &q.roots, g: q.Guard(tid), pending: arena.NoSlot}
}

// session is the queue under one thread's guard. Under NoRecl it has no
// barrier at all: raw loads through the thread's view.
type session struct {
	r       *roots
	g       *guard.Guard[Node]
	pending uint32
}

// Enqueue follows Michael's published HP protocol: protect last, validate
// tail unchanged, then operate.
func (s *session) Enqueue(v uint64) {
	g := s.g
	g.Begin()
	if s.pending == arena.NoSlot {
		s.pending = g.Alloc()
	}
	n := g.View.At(s.pending)
	n.Val.Store(v)
	n.Next.Store(0)
	newPtr := arena.MakePtr(s.pending)
	for {
		last := arena.Ptr(s.r.tail.Load())
		if !g.Validate(0, last, &s.r.tail, last) {
			g.Restart()
			continue
		}
		next := arena.Ptr(g.View.At(last.Slot()).Next.Load())
		if arena.Ptr(s.r.tail.Load()) != last {
			g.Restart()
			continue
		}
		if !next.IsNil() {
			s.r.tail.CompareAndSwap(uint64(last), uint64(next))
			continue
		}
		if g.View.At(last.Slot()).Next.CompareAndSwap(0, uint64(newPtr)) {
			s.r.tail.CompareAndSwap(uint64(last), uint64(newPtr))
			s.pending = arena.NoSlot
			g.End()
			return
		}
		g.Restart()
	}
}

// head reads the head, the tail and the head's successor. Under HP hazard
// pointer 0 protects first and 1 protects next; ok is false when the head
// moved meanwhile and the dequeue must retry.
func (s *session) head() (first, last, next arena.Ptr, ok bool) {
	g := s.g
	first = arena.Ptr(s.r.head.Load())
	if !g.Validate(0, first, &s.r.head, first) {
		return 0, 0, 0, false
	}
	last = arena.Ptr(s.r.tail.Load())
	next = arena.Ptr(g.View.At(first.Slot()).Next.Load())
	g.Protect(1, next)
	return first, last, next, arena.Ptr(s.r.head.Load()) == first
}

// Dequeue follows Michael's published HP protocol with hp0=first, hp1=next.
func (s *session) Dequeue() (uint64, bool) {
	g := s.g
	g.Begin()
	for {
		first, last, next, ok := s.head()
		if !ok {
			g.Restart()
			continue
		}
		if first == last {
			if next.IsNil() {
				g.End()
				return 0, false
			}
			s.r.tail.CompareAndSwap(uint64(last), uint64(next))
			continue
		}
		v := g.View.At(next.Slot()).Val.Load()
		if s.r.head.CompareAndSwap(uint64(first), uint64(next)) {
			g.Clear()
			g.Retire(first.Slot())
			g.End()
			return v, true
		}
		g.Restart()
	}
}
