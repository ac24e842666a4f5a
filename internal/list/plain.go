package list

import (
	"repro/internal/arena"
	"repro/internal/norecl"
	"repro/internal/obs"
	"repro/internal/smr"
)

// plainMem is what the plain traversal needs of a scheme thread beyond
// its view: a slot to link and a place to send an unlinked one.
type plainMem interface {
	Alloc() uint32
	Retire(slot uint32)
}

// plainThread is the Harris-Michael list with no per-read barrier: raw
// loads through the thread's directory view. It is the whole of NoRecl
// (retire is a counter) and, inside an epoch bracket, the whole of EBR —
// the two schemes differ in what Alloc and Retire do and in what
// surrounds an operation, never in the traversal. The view is the
// concrete *arena.View the scheme thread already holds, so a hop is two
// plain loads and the baseline pays nothing for being shared.
type plainThread struct {
	view    *arena.View[Node]
	mem     plainMem
	pending uint32
}

// search positions on the first unmarked node with key ≥ key, helping
// physical deletes.
func (t *plainThread) search(head uint32, key uint64) (prevSlot uint32, cur, next arena.Ptr, ckey uint64, ok, restart bool) {
	v := t.view
	prevSlot = head
	cur = arena.Ptr(v.At(head).Next.Load())
	for {
		if cur.IsNil() {
			return prevSlot, cur, 0, 0, false, false
		}
		n := v.At(cur.Slot())
		next = arena.Ptr(n.Next.Load())
		ckey = n.Key.Load()
		if arena.Ptr(v.At(prevSlot).Next.Load()) != cur {
			return 0, 0, 0, 0, false, true
		}
		if !next.Marked() {
			if ckey >= key {
				return prevSlot, cur, next, ckey, true, false
			}
			prevSlot = cur.Slot()
		} else {
			if v.At(prevSlot).Next.CompareAndSwap(uint64(cur), uint64(next.Unmark())) {
				t.mem.Retire(cur.Slot())
			} else {
				return 0, 0, 0, 0, false, true
			}
		}
		cur = next.Unmark()
	}
}

// ContainsAt reports membership (wait-free traversal, raw loads).
func (t *plainThread) ContainsAt(head uint32, key uint64) bool {
	v := t.view
	cur := arena.Ptr(v.At(head).Next.Load())
	for !cur.IsNil() {
		n := v.At(cur.Unmark().Slot())
		next := arena.Ptr(n.Next.Load())
		ckey := n.Key.Load()
		if ckey >= key {
			return ckey == key && !next.Marked()
		}
		cur = next.Unmark()
	}
	return false
}

// InsertAt adds key; false if present.
func (t *plainThread) InsertAt(head uint32, key uint64) bool {
	v := t.view
	for {
		prevSlot, cur, _, ckey, ok, restart := t.search(head, key)
		if restart {
			continue
		}
		if ok && ckey == key {
			return false
		}
		if t.pending == arena.NoSlot {
			t.pending = t.mem.Alloc()
		}
		n := v.At(t.pending)
		n.Key.Store(key)
		n.Next.Store(uint64(cur))
		if v.At(prevSlot).Next.CompareAndSwap(uint64(cur), uint64(arena.MakePtr(t.pending))) {
			t.pending = arena.NoSlot
			return true
		}
	}
}

// DeleteAt removes key; false if absent.
func (t *plainThread) DeleteAt(head uint32, key uint64) bool {
	v := t.view
	for {
		prevSlot, cur, next, ckey, ok, restart := t.search(head, key)
		if restart {
			continue
		}
		if !ok || ckey != key {
			return false
		}
		if !v.At(cur.Slot()).Next.CompareAndSwap(uint64(next), uint64(next.Mark())) {
			continue
		}
		if v.At(prevSlot).Next.CompareAndSwap(uint64(cur), uint64(next)) {
			t.mem.Retire(cur.Slot())
		}
		return true
	}
}

// NoReclEngine runs Harris-Michael lists with no reclamation — the paper's
// baseline and the denominator of every throughput ratio. Traversals are
// raw loads; retire is a counter.
type NoReclEngine struct {
	mgr *norecl.Manager[Node]
}

// NewNoReclEngine builds an engine.
func NewNoReclEngine(cfg norecl.Config) *NoReclEngine {
	return &NoReclEngine{mgr: norecl.NewManager[Node](cfg, ResetNode)}
}

// Manager exposes the underlying manager.
func (e *NoReclEngine) Manager() *norecl.Manager[Node] { return e.mgr }

// NewHead implements Engine.
func (e *NoReclEngine) NewHead() uint32 { return e.mgr.Thread(0).Alloc() }

// Scheme implements Engine.
func (e *NoReclEngine) Scheme() smr.Scheme { return smr.NoRecl }

// Stats implements Engine.
func (e *NoReclEngine) Stats() smr.Stats { return e.mgr.Stats() }

// RegisterObs implements Engine.
func (e *NoReclEngine) RegisterObs(reg *obs.Registry) { e.mgr.RegisterObs(reg) }

// Thread implements Engine: the plain traversal itself.
func (e *NoReclEngine) Thread(id int) Thread {
	t := e.mgr.Thread(id)
	return &plainThread{view: t.View(), mem: t, pending: arena.NoSlot}
}

// NoRecl is a single linked-list set without reclamation.
type NoRecl = Set[*NoReclEngine]

// NewNoRecl builds an empty list sized by cfg.
func NewNoRecl(cfg norecl.Config) *NoRecl { return newSet(NewNoReclEngine(cfg)) }
