package list

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/guard"
	"repro/internal/sizing"
	"repro/internal/smr"
)

// hpPrev/hpCur/hpNext are the three hazard-pointer roles of Michael's find.
const (
	hpPrev = iota
	hpCur
	hpNext
	hpsNeeded
)

// GuardedEngine runs Harris-Michael lists as the original algorithm under
// NoRecl, EBR, HP or Anchors: one traversal, whose guard hooks do what the
// scheme needs. NoRecl's hop is two plain loads. EBR brackets each
// operation with an epoch announcement. HP publishes and validates a hazard
// pointer per read, the fence Figure 1 charges it on lists. Anchors drops
// one anchor per K visits and restarts from the head when it is stale.
type GuardedEngine struct {
	*guard.Manager[Node]
}

// NewGuardedEngine builds an engine under sc, one of NoRecl, EBR, HP and
// Anchors.
func NewGuardedEngine(sc smr.Scheme, c sizing.Config) (*GuardedEngine, error) {
	m, err := guard.New(sc, c, guard.Spec[Node]{Name: "list", Reset: ResetNode, HPs: hpsNeeded, Next: nextWord})
	if err != nil {
		return nil, err
	}
	return &GuardedEngine{m}, nil
}

func nextWord(n *Node) *atomic.Uint64 { return &n.Next }

// NewHead implements Engine.
func (e *GuardedEngine) NewHead() uint32 {
	g := e.Guard(0)
	return g.Alloc()
}

// Thread implements Engine.
func (e *GuardedEngine) Thread(id int) Thread {
	return &guardedThread{g: e.Guard(id), pending: arena.NoSlot}
}

// guardedThread is the Harris-Michael list under one thread's guard.
type guardedThread struct {
	g       guard.Guard[Node]
	pending uint32
}

// search is Michael's find: it positions on the first unmarked node with
// key ≥ key, helping to physically delete marked nodes on the way. On
// return with ok, HP's hpPrev protects prevSlot (unless it is the head
// sentinel) and hpCur protects cur; the caller may CAS on them until the
// guard ends the operation.
func (t *guardedThread) search(head uint32, key uint64) (prevSlot uint32, cur, next arena.Ptr, ckey uint64, ok bool) {
	g := &t.g
	v := g.View
restart:
	for {
		prevSlot = head
		prev := v.At(head)
		g.Protect(hpPrev, arena.NilPtr)
		cur = arena.Ptr(prev.Next.Load())
		for {
			if cur.IsNil() {
				return prevSlot, cur, 0, 0, false
			}
			if !g.Validate(hpCur, cur, &prev.Next, cur) || !g.Visit(cur, &prev.Next) {
				g.Restart()
				continue restart
			}
			n := v.At(cur.Slot())
			next = arena.Ptr(n.Next.Load())
			if !g.Validate(hpNext, next, &n.Next, next) {
				g.Restart()
				continue restart
			}
			ckey = n.Key.Load()
			if arena.Ptr(prev.Next.Load()) != cur {
				g.Restart()
				continue restart
			}
			if !next.Marked() {
				if ckey >= key {
					return prevSlot, cur, next, ckey, true
				}
				prevSlot, prev = cur.Slot(), n
				g.Protect(hpPrev, cur)
			} else if prev.Next.CompareAndSwap(uint64(cur), uint64(next.Unmark())) {
				// Help the physical delete; the unlinker retires.
				g.Retire(cur.Slot())
			} else {
				g.Restart()
				continue restart
			}
			cur = next.Unmark()
		}
	}
}

// ContainsAt reports membership. The original test is wait-free: raw
// loads that step over marked nodes without helping. HP cannot run it (see
// package guard), so under HP it runs search, and even the read-only
// operation pays the full protect/validate protocol.
func (t *guardedThread) ContainsAt(head uint32, key uint64) bool {
	g := &t.g
	if g.HP() {
		_, _, next, ckey, ok := t.search(head, key)
		g.End()
		return ok && ckey == key && !next.Marked()
	}
	g.Begin()
	v := g.View
	found := false
restart:
	for {
		prev := v.At(head)
		cur := arena.Ptr(prev.Next.Load())
		for !cur.IsNil() {
			if !g.Visit(cur, &prev.Next) {
				continue restart
			}
			n := v.At(cur.Unmark().Slot())
			next := arena.Ptr(n.Next.Load())
			ckey := n.Key.Load()
			if ckey >= key {
				found = ckey == key && !next.Marked()
				break restart
			}
			prev = n
			cur = next.Unmark()
		}
		break
	}
	g.End()
	return found
}

// InsertAt adds key; false if present.
func (t *guardedThread) InsertAt(head uint32, key uint64) bool {
	g := &t.g
	v := g.View
	g.Begin()
	for {
		prevSlot, cur, _, ckey, ok := t.search(head, key)
		if ok && ckey == key {
			g.End()
			return false
		}
		if t.pending == arena.NoSlot {
			t.pending = g.Alloc()
		}
		n := v.At(t.pending)
		n.Key.Store(key)
		n.Next.Store(uint64(cur))
		if v.At(prevSlot).Next.CompareAndSwap(uint64(cur), uint64(arena.MakePtr(t.pending))) {
			t.pending = arena.NoSlot
			g.End()
			return true
		}
		g.Restart()
	}
}

// DeleteAt removes key; false if absent. The logical delete marks the
// node; the physical delete is attempted once and otherwise left to later
// searches (Michael's algorithm).
func (t *guardedThread) DeleteAt(head uint32, key uint64) bool {
	g := &t.g
	v := g.View
	g.Begin()
	for {
		prevSlot, cur, next, ckey, ok := t.search(head, key)
		if !ok || ckey != key {
			g.End()
			return false
		}
		if !v.At(cur.Slot()).Next.CompareAndSwap(uint64(next), uint64(next.Mark())) {
			g.Restart()
			continue
		}
		if v.At(prevSlot).Next.CompareAndSwap(uint64(cur), uint64(next)) {
			g.Retire(cur.Slot())
		}
		g.End()
		return true
	}
}
