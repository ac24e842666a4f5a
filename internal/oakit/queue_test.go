package oakit_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/oakit"
)

// qnode is the kit queue's node with a one-word payload.
type qnode = oakit.QNode[atomic.Uint64]

// testQueue is one kit queue on its own single-threaded engine, with
// fault injection: every inject stamps a fresh fake phase, as a
// recycler would, so each sets the warning bit exactly once.
type testQueue struct {
	e    *oakit.Engine[qnode]
	c    *oakit.Ctx[qnode]
	q    oakit.Queue
	fake uint32
}

func newTestQueue(t *testing.T) *testQueue {
	t.Helper()
	e := oakit.NewEngine(core.Config{MaxThreads: 1, Capacity: 1024, LocalPool: 16},
		func(n *qnode) { n.V.Store(0); n.Next.Store(arena.NilPtr) }, 3)
	t.Cleanup(e.Close)
	tq := &testQueue{e: e, c: e.Ctx(0), fake: 1 << 20}
	tq.q.Init(e.NewRoot())
	return tq
}

func (tq *testQueue) inject() {
	tq.e.Manager().InjectWarnings(tq.fake)
	tq.fake += 2
}

func (tq *testQueue) restarts() uint64 { return tq.e.Stats().Restarts }

// node allocates and fills the private node an enqueue links.
func (tq *testQueue) node(v uint64) arena.Ptr {
	slot := tq.c.Th.Alloc()
	n := tq.c.Node(slot)
	n.V.Store(v)
	n.Next.Store(arena.NilPtr)
	return arena.MakePtr(slot)
}

// dequeue is the caller's loop around Head and Take, as internal/queue
// writes it.
func (tq *testQueue) dequeue() (uint64, bool) {
	for {
		first, next, empty, restart := oakit.Head(tq.c, &tq.q)
		if restart {
			continue
		}
		if empty {
			return 0, false
		}
		v := tq.c.Node(next.Slot()).V.Load()
		if oakit.Take(tq.c, &tq.q, first, next) {
			return v, true
		}
	}
}

// TestQueueSealValidatesPayload pins the argument that lets a dequeue
// read its payload with no check of its own: a warning that lands after
// Head, before the payload read, is caught by Take's seal. Take refuses,
// the head stays put, and the next round dequeues the value exactly once.
func TestQueueSealValidatesPayload(t *testing.T) {
	tq := newTestQueue(t)
	oakit.Enqueue(tq.c, &tq.q, tq.node(7))

	first, next, empty, restart := oakit.Head(tq.c, &tq.q)
	if empty || restart {
		t.Fatalf("Head = empty %v, restart %v on a one-element queue", empty, restart)
	}
	r0 := tq.restarts()
	tq.inject()
	_ = tq.c.Node(next.Slot()).V.Load()
	if oakit.Take(tq.c, &tq.q, first, next) {
		t.Fatal("Take committed under a warning raised after Head")
	}
	if got := tq.q.Head.Load(); got != first {
		t.Fatalf("head moved to %v by a refused Take, want %v", got, first)
	}
	if got := tq.restarts(); got != r0+1 {
		t.Fatalf("restarts %d → %d, want one for the seal", r0, got)
	}
	if v, ok := tq.dequeue(); !ok || v != 7 {
		t.Fatalf("dequeue = %d,%v, want 7", v, ok)
	}
	if v, ok := tq.dequeue(); ok {
		t.Fatalf("dequeue = %d from a drained queue", v)
	}
}

// TestQueueOneRestartPerWarnedRound pins the check placement: a round
// reads the roots and one successor under one warning check, so a warning
// raised before an enqueue, a dequeue or an empty dequeue costs exactly
// one restart, and the operation still returns the right result.
func TestQueueOneRestartPerWarnedRound(t *testing.T) {
	tq := newTestQueue(t)
	warned := func(name string, op func()) {
		t.Helper()
		r0 := tq.restarts()
		tq.inject()
		op()
		if got := tq.restarts() - r0; got != 1 {
			t.Fatalf("%s: %d restarts, want 1", name, got)
		}
	}
	n := tq.node(11)
	warned("enqueue", func() { oakit.Enqueue(tq.c, &tq.q, n) })
	warned("dequeue", func() {
		if v, ok := tq.dequeue(); !ok || v != 11 {
			t.Fatalf("dequeue = %d,%v, want 11", v, ok)
		}
	})
	warned("empty dequeue", func() {
		if v, ok := tq.dequeue(); ok {
			t.Fatalf("dequeue = %d from an empty queue", v)
		}
	})
}
