package oakit

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/smr"
)

// Node is the node of the OA Harris-Michael chain: a sorted list keyed
// by a uint64, with the structure's payload words in V (all atomics —
// under OA a node may be read after its slot was recycled). The chain
// words are fields, so the traversal below compiles to direct loads for
// every payload shape. The payload comes first: Go pads a struct that
// ends in a zero-size field, so an empty payload placed last would grow
// the list node from 16 to 24 bytes.
type Node[V any] struct {
	V V
	// Key is the node's key; written only between allocation and linking.
	Key atomic.Uint64
	// Next holds arena.Ptr bits: successor handle plus the logical-delete
	// mark in bit 0 (Harris' marked pointer).
	Next atomic.Uint64
}

// Pos is a traversal position: the first unmarked node with key ≥ the
// searched key, or the end of the chain (Cur nil), plus its predecessor.
// Prev is a slot (roots have no Ptr), Cur/Next are handles. Four words on
// purpose: the compiler keeps a struct of up to four fields in registers
// and spills a fifth, with the whole struct, to the stack.
type Pos struct {
	Prev      uint32
	Cur, Next arena.Ptr
	Key       uint64
}

// At reports whether the position is on a node carrying key.
func (p Pos) At(key uint64) bool { return !p.Cur.IsNil() && p.Key == key }

// Find is the CAS-generator search loop of the paper's Listing 1, the
// one copy in the repository: hop the chain from head, batching each
// node's key and next loads under one warning check, helping physical
// deletes of marked nodes along the way (write barrier + retire via
// UnlinkRetire). restart=true means the caller must restart its
// generator; the position is then invalid.
func Find[V any](c *Ctx[Node[V]], head uint32, key uint64) (pos Pos, restart bool) {
	th := c.Th
	prev := head
	cur := arena.Ptr(th.Node(head).Next.Load())
	if th.Check() {
		return Pos{}, true
	}
	for {
		if cur.IsNil() {
			return Pos{Prev: prev}, false
		}
		curSlot := cur.Slot()
		n := th.Node(curSlot)
		next := arena.Ptr(n.Next.Load())
		ckey := n.Key.Load()
		tmp := arena.Ptr(th.Node(prev).Next.Load())
		if th.Check() {
			return Pos{}, true
		}
		if tmp != cur {
			return Pos{}, true // Listing 1 line 14: goto start
		}
		if !next.Marked() {
			if ckey >= key {
				return Pos{Prev: prev, Cur: cur, Next: next, Key: ckey}, false
			}
			prev = curSlot
		} else if !c.UnlinkRetire(&th.Node(prev).Next, arena.MakePtr(prev), cur, next.Unmark()) {
			return Pos{}, true
		}
		cur = next.Unmark()
	}
}

// Contains is the wait-free read-only membership test (Algorithm 1, with
// the independent-reads optimization of Appendix E batching the key and
// next reads): two loads plus one warning check per hop, no hazard
// pointers, no fences.
func Contains[V any](c *Ctx[Node[V]], head uint32, key uint64) bool {
	th := c.Th
restart:
	for {
		cur := arena.Ptr(th.Node(head).Next.Load())
		if th.Check() {
			continue restart
		}
		for !cur.IsNil() {
			n := th.Node(cur.Unmark().Slot())
			next := arena.Ptr(n.Next.Load())
			ckey := n.Key.Load()
			if th.Check() {
				continue restart
			}
			if ckey >= key {
				return ckey == key && !next.Marked()
			}
			cur = next.Unmark()
		}
		return false
	}
}

// Insert links a new node carrying key into the sorted chain at head;
// false if the key is already present. init, if non-nil, fills the
// pending node's payload words after the key is set and before the node
// is linked (the node is still thread-private, so the stores publish
// with the linking CAS).
func Insert[V any](c *Ctx[Node[V]], head uint32, key uint64, init func(*Node[V])) bool {
	th := c.Th
	for {
		// --- CAS generator ---
		pos, restart := Find(c, head, key)
		if restart {
			continue
		}
		if pos.At(key) {
			return false // wrap-up of the empty CAS list: already present
		}
		slot := c.Pending()
		n := th.Node(slot)
		n.Key.Store(key)
		n.Next.Store(uint64(pos.Cur))
		if init != nil {
			init(n)
		}
		// Algorithm 3: protect O=prev, A2=cur, A3=new node; seal and
		// executor inside Commit.
		if !c.Commit(&th.Node(pos.Prev).Next, uint64(pos.Cur), uint64(arena.MakePtr(slot)),
			arena.MakePtr(pos.Prev), pos.Cur, arena.MakePtr(slot)) {
			continue // RESTART_GENERATOR
		}
		c.ConsumePending()
		return true
	}
}

// Delete deletes key from the chain at head; false if absent. See
// DeleteIf.
func Delete[V any](c *Ctx[Node[V]], head uint32, key uint64) bool {
	return DeleteIf(c, head, key, nil)
}

// DeleteIf deletes key only while pred holds on the node's current
// payload: the generator re-reads the node through pred (loads the
// caller supplies, validated here by one Check) and emits the mark CAS
// only if pred approves. It is the conditional-removal primitive lazy
// TTL expiry needs — a fresh same-key entry (or one whose deadline was
// extended) is never removed by a stale decision, because the predicate
// is re-evaluated inside the generator on every restart. A nil pred
// always approves and costs no check. The winner of the mark unlinks and
// retires the node at once (UnlinkMarked).
func DeleteIf[V any](c *Ctx[Node[V]], head uint32, key uint64, pred func(*Node[V]) bool) bool {
	pos, ok := Mark(c, head, key, pred)
	if ok {
		UnlinkMarked(c, pos)
	}
	return ok
}

// Mark is DeleteIf up to its linearization point: the logical delete of
// Listing 1 / Appendix C, marking the node's next word. On true the
// commit's owner hazard pointers — cur, next and prev, in that order —
// are still published, so the caller may read the marked node before it
// calls UnlinkMarked(c, pos); a marked node never unlinked this way is
// left to the helping traversals.
func Mark[V any](c *Ctx[Node[V]], head uint32, key uint64, pred func(*Node[V]) bool) (Pos, bool) {
	th := c.Th
	for {
		// --- CAS generator ---
		pos, restart := Find(c, head, key)
		if restart {
			continue
		}
		if !pos.At(key) {
			return pos, false // empty CAS list; wrap-up reports FALSE
		}
		n := th.Node(pos.Cur.Slot())
		if pred != nil {
			hold := pred(n)
			if th.Check() {
				continue
			}
			if !hold {
				return pos, false
			}
		}
		// Listing 4: HP[3]=cur, HP[4]=next; the new value mark(next)
		// dedups with next (basic optimization). prev is owned too, for
		// the unlink the wrap-up performs.
		if !c.Commit(&n.Next, uint64(pos.Next), uint64(pos.Next.Mark()),
			pos.Cur, pos.Next, arena.MakePtr(pos.Prev)) {
			continue // RESTART_GENERATOR
		}
		return pos, true
	}
}

// UnlinkMarked is the wrap-up of a won Mark: CAS prev.next: cur → next
// and, on success, retire cur — the helping unlink a later traversal
// would otherwise perform under a write barrier of its own. Every
// operand is still pinned by the mark's owner hazard pointers, sealed by
// its warning check, so no further barrier is needed (the MS-queue tail
// swing follows the same pattern). A lost CAS — prev was deleted, or an
// insert linked a node in front of cur — leaves cur to the helpers.
func UnlinkMarked[V any](c *Ctx[Node[V]], pos Pos) {
	th := c.Th
	if th.Node(pos.Prev).Next.CompareAndSwap(uint64(pos.Cur), uint64(pos.Next)) {
		th.Retire(pos.Cur.Slot()) // proper: now unlinked, single unlinker
	}
}

// List is one chain as a set: the OA Harris-Michael list (it implements
// smr.Set). internal/list's OA list is List[struct{}].
type List[V any] struct {
	e    *Engine[Node[V]]
	head uint32
}

// NewChain builds an engine for chains of Node[V], any number of heads.
// A chain operation executes at most one CAS, so three owner hazard
// pointers suffice (Algorithm 3 with C = 1).
func NewChain[V any](cfg core.Config, reset func(*Node[V])) *Engine[Node[V]] {
	return NewEngine(cfg, reset, 3)
}

// NewList builds an empty list sized by cfg.
func NewList[V any](cfg core.Config, reset func(*Node[V])) *List[V] {
	e := NewChain(cfg, reset)
	return &List[V]{e: e, head: e.NewRoot()}
}

// Engine exposes the underlying kit engine.
func (l *List[V]) Engine() *Engine[Node[V]] { return l.e }

// Scheme implements smr.Set.
func (l *List[V]) Scheme() smr.Scheme { return smr.OA }

// Stats implements smr.Set.
func (l *List[V]) Stats() smr.Stats { return l.e.Stats() }

// Session implements smr.Set (fixed-slot harness sessions; servers lease
// with Engine().Acquire and operate through the chain functions).
func (l *List[V]) Session(tid int) smr.Session {
	return listSession[V]{c: l.e.Ctx(tid), head: l.head}
}

// RegisterObs implements obs.Registrar by forwarding to the manager.
func (l *List[V]) RegisterObs(reg *obs.Registry) { l.e.RegisterObs(reg) }

type listSession[V any] struct {
	c    *Ctx[Node[V]]
	head uint32
}

func (s listSession[V]) Insert(key uint64) bool   { return Insert(s.c, s.head, key, nil) }
func (s listSession[V]) Delete(key uint64) bool   { return Delete(s.c, s.head, key) }
func (s listSession[V]) Contains(key uint64) bool { return Contains(s.c, s.head, key) }
