package skiplist

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/oakit"
	"repro/internal/obs"
	"repro/internal/smr"
)

// OAOwnerHPs is the owner hazard-pointer budget per thread: the delete
// generator's CAS list shares one modified object (the victim) and one
// expected/new pointer per level, so with the paper's dedup optimization
// MaxLevel+5 hazard pointers suffice (§5).
const OAOwnerHPs = MaxLevel + 5

// OASkipList is the skip list under the optimistic access scheme.
//
// The normalized decomposition (§3.2) maps onto the operations as follows:
//   - Contains: a read-only generator (empty CAS list) — two loads and one
//     warning check per hop, no fences, no hazard pointers.
//   - Delete: the generator finds the victim and emits mark-CASes for every
//     still-unmarked level, top down — at most MaxLevel+1 descriptors, the
//     paper's "MAXLEN+1 CASes"; the wrap-up restarts the generator on any
//     executor failure, and the winner of the bottom mark runs one clean
//     (instrumented) find to unlink the node everywhere before retiring it.
//   - Insert: one generator round links the bottom level (linearization);
//     subsequent rounds emit the upper-level link CASes one level at a
//     time, each sealed by owner hazard pointers.
//
// The per-hop reads of Next[level] are this file's; every barrier after
// them — snip, owner hazard pointers, seal, executor — is the kit's.
type OASkipList struct {
	kit  *oakit.Engine[Node]
	head uint32
}

// NewOA builds an empty skip list sized by cfg.
func NewOA(cfg core.Config) *OASkipList {
	kit := oakit.NewEngine(cfg, ResetNode, OAOwnerHPs)
	head := kit.NewRoot()
	kit.Manager().Arena().At(head).Height.Store(MaxLevel)
	return &OASkipList{kit: kit, head: head}
}

// Manager exposes the underlying optimistic access manager.
func (s *OASkipList) Manager() *core.Manager[Node] { return s.kit.Manager() }

// Scheme implements smr.Set.
func (s *OASkipList) Scheme() smr.Scheme { return smr.OA }

// Stats implements smr.Set.
func (s *OASkipList) Stats() smr.Stats { return s.kit.Stats() }

// RegisterObs implements obs.Registrar by forwarding to the core manager.
func (s *OASkipList) RegisterObs(reg *obs.Registry) { s.kit.RegisterObs(reg) }

// Session implements smr.Set.
func (s *OASkipList) Session(tid int) smr.Session {
	return &oaSession{
		head: s.head,
		c:    s.kit.Ctx(tid),
		rng:  newLevelRng(uint64(tid)*0xD1B54A32D192ED03 + 1),
	}
}

type oaSession struct {
	head  uint32
	c     *oakit.Ctx[Node]
	rng   levelRng
	preds [MaxLevel]uint32
	succs [MaxLevel]arena.Ptr
}

// loadHeight reads a node's height, tolerating stale values: an invalid
// height can only come from a recycled slot, in which case the warning bit
// is pending and the caller must restart.
func (s *oaSession) loadHeight(n *Node) (uint32, bool) {
	h := n.Height.Load()
	if h >= 1 && h <= MaxLevel {
		return h, false
	}
	if s.c.Check() {
		return 0, true
	}
	panic(fmt.Sprintf("skiplist: invalid height %d on a non-stale node", h))
}

// find positions s.preds/s.succs around key. Every optimistic read is
// followed by the Algorithm 1 warning check; the snip CASes run under the
// Algorithm 2 write barrier. restart=true tells the caller to restart its
// generator — a warning, or a snip that lost its race (the CAS expects an
// unmarked pred.next, so a deleted pred fails it).
func (s *oaSession) find(key uint64) (found, restart bool) {
	th := s.c.Th
	predSlot := s.head
	for level := MaxLevel - 1; level >= 0; level-- {
		curr := th.Node(predSlot).Next[level].Load().Unmark()
		if th.Check() {
			return false, true
		}
		for !curr.IsNil() {
			n := th.Node(curr.Slot())
			succ := n.Next[level].Load()
			ckey := n.Key.Load()
			if th.Check() {
				return false, true
			}
			if succ.Marked() {
				// curr is deleted at this level: snip (observable CAS,
				// Algorithm 2). Snips never retire here — the winning
				// deleter retires after the node is fully unlinked.
				if !s.c.Unlink(&th.Node(predSlot).Next[level], arena.MakePtr(predSlot), curr, succ.Unmark()) {
					return false, true
				}
				curr = succ.Unmark()
				continue
			}
			if ckey < key {
				predSlot = curr.Slot()
				curr = succ
			} else {
				break
			}
		}
		s.preds[level] = predSlot
		s.succs[level] = curr
	}
	f := s.succs[0]
	if f.IsNil() {
		return false, false
	}
	k := th.Node(f.Slot()).Key.Load()
	if th.Check() {
		return false, true
	}
	return k == key, false
}

// Contains is the read-only normalized operation: empty CAS list, result
// recorded before the final warning check validates everything it depends
// on.
func (s *oaSession) Contains(key uint64) bool {
	th := s.c.Th
restart:
	for {
		predSlot := s.head
		var curr arena.Ptr
		for level := MaxLevel - 1; level >= 0; level-- {
			curr = th.Node(predSlot).Next[level].Load().Unmark()
			if th.Check() {
				continue restart
			}
			var ckey uint64
			for !curr.IsNil() {
				n := th.Node(curr.Slot())
				succ := n.Next[level].Load()
				ckey = n.Key.Load()
				if th.Check() {
					continue restart
				}
				if succ.Marked() {
					curr = succ.Unmark()
					continue
				}
				if ckey < key {
					predSlot = curr.Slot()
					curr = succ
				} else {
					break
				}
			}
			if !curr.IsNil() && ckey == key {
				return true
			}
		}
		return false
	}
}

// Insert adds key; false if present.
func (s *oaSession) Insert(key uint64) bool {
	th := s.c.Th
	height := s.rng.next()

	// Phase 1: link the bottom level (the linearization point).
	for {
		// --- CAS generator ---
		found, restart := s.find(key)
		if restart {
			continue
		}
		if found {
			return false
		}
		newPtr := arena.MakePtr(s.c.Pending())
		n := th.Node(newPtr.Slot())
		n.Key.Store(key)
		n.Height.Store(height)
		for l := uint32(0); l < height; l++ {
			n.Next[l].Store(s.succs[l])
		}
		// --- executor + wrap-up: O=pred, A2=succ, A3=new node ---
		if !s.c.Commit(&th.Node(s.preds[0]).Next[0], s.succs[0], newPtr,
			arena.MakePtr(s.preds[0]), s.succs[0], newPtr) {
			continue
		}
		s.c.ConsumePending()
		s.linkUpper(n, newPtr, height, key)
		return true
	}
}

// linkUpper runs one generator round per upper level: re-point the node's
// own next and link it at preds[level], both as an executor CAS list pinned
// by owner hazard pointers.
func (s *oaSession) linkUpper(n *Node, newPtr arena.Ptr, height uint32, key uint64) {
	th := s.c.Th
	valid := true // preds/succs still usable from the previous round
	for l := uint32(1); l < height; l++ {
		for {
			// --- CAS generator ---
			if !valid {
				found, restart := s.find(key)
				if restart {
					continue
				}
				if !found || s.succs[0] != newPtr {
					return // deleted while linking
				}
				valid = true
			}
			nl := n.Next[l].Load()
			if th.Check() {
				valid = false
				continue
			}
			if nl.Marked() {
				return // deletion started: stop linking
			}
			succ := s.succs[l]
			if succ == newPtr {
				break // refreshed search already sees us at this level
			}
			s.c.Begin()
			if nl != succ {
				s.c.Emit(&n.Next[l], nl, succ)
			}
			s.c.Emit(&th.Node(s.preds[l]).Next[l], succ, newPtr)
			s.c.Own(0, arena.MakePtr(s.preds[l]))
			s.c.Own(1, succ)
			s.c.Own(2, newPtr)
			s.c.Own(3, nl)
			// --- executor + wrap-up ---
			if !s.c.CommitAll() {
				valid = false
				continue
			}
			break
		}
	}
}

// Delete removes key; false if absent.
func (s *oaSession) Delete(key uint64) bool {
	th := s.c.Th
	var levelSucc [MaxLevel]arena.Ptr
	for {
		// --- CAS generator ---
		found, restart := s.find(key)
		if restart {
			continue
		}
		if !found {
			return false
		}
		victim := s.succs[0]
		n := th.Node(victim.Slot())
		height, restart := s.loadHeight(n)
		if restart {
			continue
		}
		for l := uint32(0); l < height; l++ {
			levelSucc[l] = n.Next[l].Load()
		}
		if th.Check() {
			continue
		}
		if levelSucc[0].Marked() {
			return false // another deleter won the bottom level
		}
		// Emit mark CASes top-down for every still-unmarked level; the
		// bottom mark comes last and decides the operation.
		s.c.Begin()
		s.c.Own(0, victim)
		owned := 1
		for l := int(height) - 1; l >= 0; l-- {
			sl := levelSucc[l]
			if sl.Marked() {
				continue
			}
			s.c.Emit(&n.Next[l], sl, sl.Mark())
			s.c.Own(owned, sl) // new value mark(sl) dedups with sl
			owned++
		}
		// --- executor + wrap-up ---
		if !s.c.CommitAll() {
			continue // a warning, or some level changed: regenerate
		}
		// We won the bottom mark: one clean find unlinks the node from
		// every level, after which retiring is proper (§3.3).
		for {
			if _, restart := s.find(key); !restart {
				break
			}
		}
		th.Retire(victim.Slot())
		return true
	}
}
