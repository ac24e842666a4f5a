package list

import (
	"repro/internal/arena"
	"repro/internal/hpscheme"
	"repro/internal/obs"
	"repro/internal/smr"
)

// HPEngine runs Harris-Michael lists under Michael's hazard pointers. Every
// traversal hop publishes a hazard pointer (a sequentially consistent store
// — the fence the paper charges HP for) and validates it by re-reading its
// source; validation failure restarts the traversal from the head. This is
// the per-read overhead Figure 1 shows as 3x-5x on the list benchmarks.
type HPEngine struct {
	mgr *hpscheme.Manager[Node]
}

// hpPrev/hpCur/hpNext are the three hazard-pointer roles of Michael's find.
const (
	hpPrev = iota
	hpCur
	hpNext
	// HPsNeeded is the per-thread hazard pointer count for the list.
	HPsNeeded
)

// NewHPEngine builds an engine; cfg.HPsPerThread is forced to the list's
// need.
func NewHPEngine(cfg hpscheme.Config) *HPEngine {
	cfg.HPsPerThread = HPsNeeded
	return &HPEngine{mgr: hpscheme.NewManager[Node](cfg, ResetNode)}
}

// Manager exposes the underlying hazard-pointers manager.
func (e *HPEngine) Manager() *hpscheme.Manager[Node] { return e.mgr }

// NewHead implements Engine.
func (e *HPEngine) NewHead() uint32 { return e.mgr.Thread(0).Alloc() }

// Scheme implements Engine.
func (e *HPEngine) Scheme() smr.Scheme { return smr.HP }

// Stats implements Engine.
func (e *HPEngine) Stats() smr.Stats { return e.mgr.Stats() }

// RegisterObs implements Engine.
func (e *HPEngine) RegisterObs(reg *obs.Registry) { e.mgr.RegisterObs(reg) }

// HPThread is the per-worker handle.
type HPThread struct {
	t       *hpscheme.Thread[Node]
	pending uint32
}

// Thread implements Engine.
func (e *HPEngine) Thread(id int) Thread {
	return &HPThread{t: e.mgr.Thread(id), pending: arena.NoSlot}
}

// find is Michael's Find: it positions on the first unmarked node with
// key ≥ key, helping to physically delete marked nodes on the way. On
// return with ok=true, hpPrev protects prevSlot (unless it is the head
// sentinel) and hpCur protects cur; the caller may CAS on them until it
// clears the hazard pointers.
func (t *HPThread) find(head uint32, key uint64) (prevSlot uint32, cur, next arena.Ptr, ckey uint64, ok bool) {
	th := t.t
restart:
	for {
		prevSlot = head
		th.Protect(hpPrev, arena.NilPtr)
		cur = arena.Ptr(th.Node(head).Next.Load())
		for {
			if cur.IsNil() {
				return prevSlot, cur, 0, 0, false
			}
			// Protect cur, validate against prev.next (re-read).
			th.Protect(hpCur, cur)
			if arena.Ptr(th.Node(prevSlot).Next.Load()) != cur {
				th.CountRestart()
				continue restart
			}
			n := th.Node(cur.Slot())
			next = arena.Ptr(n.Next.Load())
			// Protect next, validate it is still cur's successor.
			th.Protect(hpNext, next)
			if arena.Ptr(n.Next.Load()) != next {
				th.CountRestart()
				continue restart
			}
			ckey = n.Key.Load()
			if !next.Marked() {
				if arena.Ptr(th.Node(prevSlot).Next.Load()) != cur {
					th.CountRestart()
					continue restart
				}
				if ckey >= key {
					return prevSlot, cur, next, ckey, true
				}
				prevSlot = cur.Slot()
				th.Protect(hpPrev, cur)
			} else {
				// Help the physical delete; the unlinker retires.
				if th.Node(prevSlot).Next.CompareAndSwap(uint64(cur), uint64(next.Unmark())) {
					th.Retire(cur.Slot())
				} else {
					th.CountRestart()
					continue restart
				}
			}
			cur = next.Unmark()
		}
	}
}

// ContainsAt reports membership. Even the read-only operation pays the
// full protect/validate protocol — the cost hazard pointers impose on
// traversals.
func (t *HPThread) ContainsAt(head uint32, key uint64) bool {
	_, _, next, ckey, ok := t.find(head, key)
	t.t.ClearAll()
	return ok && ckey == key && !next.Marked()
}

// InsertAt adds key; false if present.
func (t *HPThread) InsertAt(head uint32, key uint64) bool {
	th := t.t
	for {
		prevSlot, cur, _, ckey, ok := t.find(head, key)
		if ok && ckey == key {
			th.ClearAll()
			return false
		}
		if t.pending == arena.NoSlot {
			t.pending = th.Alloc()
		}
		n := th.Node(t.pending)
		n.Key.Store(key)
		n.Next.Store(uint64(cur))
		if th.Node(prevSlot).Next.CompareAndSwap(uint64(cur), uint64(arena.MakePtr(t.pending))) {
			th.ClearAll()
			t.pending = arena.NoSlot
			return true
		}
		th.CountRestart()
	}
}

// DeleteAt removes key; false if absent. Logical delete marks the node;
// the physical delete is attempted once, and otherwise left to future
// finds (Michael's algorithm).
func (t *HPThread) DeleteAt(head uint32, key uint64) bool {
	th := t.t
	for {
		prevSlot, cur, next, ckey, ok := t.find(head, key)
		if !ok || ckey != key {
			th.ClearAll()
			return false
		}
		if !th.Node(cur.Slot()).Next.CompareAndSwap(uint64(next), uint64(next.Mark())) {
			th.CountRestart()
			continue
		}
		// Attempt the physical delete; on failure some find will do it.
		if th.Node(prevSlot).Next.CompareAndSwap(uint64(cur), uint64(next)) {
			th.Retire(cur.Slot())
		}
		th.ClearAll()
		return true
	}
}

// HP is a single linked-list set under hazard pointers.
type HP = Set[*HPEngine]

// NewHP builds an empty list sized by cfg.
func NewHP(cfg hpscheme.Config) *HP { return newSet(NewHPEngine(cfg)) }
