package list

import (
	"repro/internal/anchors"
	"repro/internal/arena"
	"repro/internal/obs"
	"repro/internal/smr"
)

// AnchorsEngine runs Harris-Michael lists under the anchors cost model
// (see package anchors for the scheme description and its documented
// simplifications). Traversals drop an anchor — one fence — every K node
// visits and validate it, restarting from the head on failure; reclamation
// spares anchored segments plus anything inside an active operation's era.
type AnchorsEngine struct {
	mgr *anchors.Manager[Node]
}

// NewAnchorsEngine builds an engine wired to the list's successor relation.
func NewAnchorsEngine(cfg anchors.Config) *AnchorsEngine {
	e := &AnchorsEngine{}
	succ := func(slot uint32) arena.Ptr {
		return arena.Ptr(e.mgr.Arena().At(slot).Next.Load())
	}
	e.mgr = anchors.NewManager[Node](cfg, ResetNode, succ)
	return e
}

// Manager exposes the underlying anchors manager.
func (e *AnchorsEngine) Manager() *anchors.Manager[Node] { return e.mgr }

// NewHead implements Engine.
func (e *AnchorsEngine) NewHead() uint32 { return e.mgr.Thread(0).Alloc() }

// Scheme implements Engine.
func (e *AnchorsEngine) Scheme() smr.Scheme { return smr.Anchors }

// Stats implements Engine.
func (e *AnchorsEngine) Stats() smr.Stats { return e.mgr.Stats() }

// RegisterObs implements Engine.
func (e *AnchorsEngine) RegisterObs(reg *obs.Registry) { e.mgr.RegisterObs(reg) }

// AnchorsThread is the per-worker handle.
type AnchorsThread struct {
	t       *anchors.Thread[Node]
	pending uint32
}

// Thread implements Engine.
func (e *AnchorsEngine) Thread(id int) Thread {
	return &AnchorsThread{t: e.mgr.Thread(id), pending: arena.NoSlot}
}

// visit drops an anchor every K hops and validates it against prev.next;
// returns true when the traversal must restart (anchor recovery analogue).
func (t *AnchorsThread) visit(prevSlot uint32, cur arena.Ptr) bool {
	th := t.t
	if !th.Visit(cur) {
		return false
	}
	// Validate: cur must still be prev's successor (possibly as a marked
	// pointer target); a stale anchor means recovery — restart.
	if arena.Ptr(th.Node(prevSlot).Next.Load()).Unmark() != cur.Unmark() {
		th.CountRestart()
		return true
	}
	return false
}

func (t *AnchorsThread) search(head uint32, key uint64) (prevSlot uint32, cur, next arena.Ptr, ckey uint64, ok, restart bool) {
	th := t.t
	prevSlot = head
	cur = arena.Ptr(th.Node(head).Next.Load())
	for {
		if cur.IsNil() {
			return prevSlot, cur, 0, 0, false, false
		}
		if t.visit(prevSlot, cur) {
			return 0, 0, 0, 0, false, true
		}
		n := th.Node(cur.Slot())
		next = arena.Ptr(n.Next.Load())
		ckey = n.Key.Load()
		if arena.Ptr(th.Node(prevSlot).Next.Load()) != cur {
			return 0, 0, 0, 0, false, true
		}
		if !next.Marked() {
			if ckey >= key {
				return prevSlot, cur, next, ckey, true, false
			}
			prevSlot = cur.Slot()
		} else {
			if th.Node(prevSlot).Next.CompareAndSwap(uint64(cur), uint64(next.Unmark())) {
				th.Retire(cur.Slot())
			} else {
				return 0, 0, 0, 0, false, true
			}
		}
		cur = next.Unmark()
	}
}

// ContainsAt reports membership.
func (t *AnchorsThread) ContainsAt(head uint32, key uint64) bool {
	th := t.t
	th.OnOpStart()
	defer th.OnOpEnd()
restart:
	for {
		prevSlot := head
		cur := arena.Ptr(th.Node(head).Next.Load())
		for !cur.IsNil() {
			if t.visit(prevSlot, cur) {
				continue restart
			}
			n := th.Node(cur.Unmark().Slot())
			next := arena.Ptr(n.Next.Load())
			ckey := n.Key.Load()
			if ckey >= key {
				return ckey == key && !next.Marked()
			}
			prevSlot = cur.Unmark().Slot()
			cur = next.Unmark()
		}
		return false
	}
}

// InsertAt adds key; false if present.
func (t *AnchorsThread) InsertAt(head uint32, key uint64) bool {
	th := t.t
	th.OnOpStart()
	defer th.OnOpEnd()
	for {
		prevSlot, cur, _, ckey, ok, restart := t.search(head, key)
		if restart {
			continue
		}
		if ok && ckey == key {
			return false
		}
		if t.pending == arena.NoSlot {
			t.pending = th.Alloc()
		}
		n := th.Node(t.pending)
		n.Key.Store(key)
		n.Next.Store(uint64(cur))
		if th.Node(prevSlot).Next.CompareAndSwap(uint64(cur), uint64(arena.MakePtr(t.pending))) {
			t.pending = arena.NoSlot
			return true
		}
	}
}

// DeleteAt removes key; false if absent.
func (t *AnchorsThread) DeleteAt(head uint32, key uint64) bool {
	th := t.t
	th.OnOpStart()
	defer th.OnOpEnd()
	for {
		prevSlot, cur, next, ckey, ok, restart := t.search(head, key)
		if restart {
			continue
		}
		if !ok || ckey != key {
			return false
		}
		if !th.Node(cur.Slot()).Next.CompareAndSwap(uint64(next), uint64(next.Mark())) {
			continue
		}
		if th.Node(prevSlot).Next.CompareAndSwap(uint64(cur), uint64(next)) {
			th.Retire(cur.Slot())
		}
		return true
	}
}

// AnchorsList is a single linked-list set under the anchors scheme.
type AnchorsList = Set[*AnchorsEngine]

// NewAnchors builds an empty list sized by cfg.
func NewAnchors(cfg anchors.Config) *AnchorsList { return newSet(NewAnchorsEngine(cfg)) }
