package oakit

import "repro/internal/arena"

// QNode is the node of the OA Michael-Scott queue, with the structure's
// payload words in V (all atomics — under OA a node may be read after its
// slot was recycled). The payload comes first, as in Node[V].
// internal/queue's node is QNode[atomic.Uint64]; internal/mpmc's is an
// eight-word payload.
type QNode[V any] struct {
	V V
	// Next is the successor handle (no marks in a queue).
	Next arena.Link
}

// Queue is an MS queue's two root links: the sentinel (Head) and the
// last or second-to-last node (Tail). Like a chain's
// root they live outside the arena and are never recycled, so loading
// them needs no warning check (DESIGN §4).
type Queue struct {
	Head arena.Link
	Tail arena.Link
}

// Init points both roots at the sentinel of an empty queue.
func (q *Queue) Init(sentinel uint32) {
	q.Head.Store(arena.MakePtr(sentinel))
	q.Tail.Store(arena.MakePtr(sentinel))
}

// Enqueue links n, a private node whose payload and nil Next the caller
// has already written, after q's last node. Normalized form: the
// generator finds the tail cell and emits the single link CAS; the
// wrap-up swings the tail. One warning check per round, after the
// successor load and the tail re-read, plus the commit's seal.
func Enqueue[V any](c *Ctx[QNode[V]], q *Queue, n arena.Ptr) {
	th := c.Th
	for {
		// --- CAS generator ---
		last := q.Tail.Load()
		next := th.Node(last.Slot()).Next.Load()
		tailNow := q.Tail.Load()
		if th.Check() || tailNow != last {
			continue
		}
		if !next.IsNil() {
			// Tail lags: help swing it (a root CAS on node operands), then
			// retry.
			c.HelpCAS(&q.Tail, last, next)
			continue
		}
		// --- executor + wrap-up: O=last, A3=n ---
		if !c.Commit(&th.Node(last.Slot()).Next, arena.NilPtr, n, last, n, arena.NilPtr) {
			continue
		}
		// Swing the tail while the owner hazard pointers still pin last
		// and n (no ABA window).
		q.Tail.CompareAndSwap(last, n)
		return
	}
}

// Head is the dequeue's CAS generator: it reads the sentinel first and
// its successor next, under one warning check. empty=true reports an
// empty queue, validated by that check. restart=true means the round
// must be repeated: the check caught a warning, the head moved, or the
// round helped a lagging tail. Otherwise the caller reads next's payload
// and calls Take; Take's seal validates those reads.
func Head[V any](c *Ctx[QNode[V]], q *Queue) (first, next arena.Ptr, empty, restart bool) {
	th := c.Th
	first = q.Head.Load()
	last := q.Tail.Load()
	next = th.Node(first.Slot()).Next.Load()
	headNow := q.Head.Load()
	if th.Check() || headNow != first {
		return 0, 0, false, true
	}
	if first == last {
		if next.IsNil() {
			return 0, 0, true, false
		}
		c.HelpCAS(&q.Tail, last, next)
		return 0, 0, false, true
	}
	return first, next, false, false
}

// Take commits a dequeue round Head produced: the head swing first →
// next (A2=first, A3=next; the target is a root), whose seal is a warning
// load ordered after the caller's payload reads and so validates them.
// On success the old sentinel is retired (unlinked, single retirer);
// false means restart from Head and discard the payload.
func Take[V any](c *Ctx[QNode[V]], q *Queue, first, next arena.Ptr) bool {
	if !c.Commit(&q.Head, first, next, first, next, arena.NilPtr) {
		return false
	}
	c.Th.Retire(first.Slot())
	return true
}
