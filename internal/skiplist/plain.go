package skiplist

import (
	"repro/internal/arena"
	"repro/internal/guard"
	"repro/internal/smr"
)

// Hazard pointer layout for the skip list: one pred and one succ per level
// (they must stay protected until the operation's CASes are done), two
// traversal scratch pointers, and one for the victim/new node. Total
// 2·MaxLevel+3, the figure the paper quotes for its HP skip list (§5).
const (
	hpPred      = 0            // MaxLevel entries: preds[level]
	hpSucc      = MaxLevel     // MaxLevel entries: succs[level]
	hpCur       = 2 * MaxLevel // traversal scratch: current node
	hpNext      = 2*MaxLevel + 1
	hpExtra     = 2*MaxLevel + 2 // victim (delete) / new node (insert)
	hpPerThread = 2*MaxLevel + 3
)

// heightSeeds are the per-scheme multipliers of a thread's level-rng seed,
// so that each scheme keeps the node heights (and HP its protection
// counts per operation) it always had.
var heightSeeds = map[smr.Scheme]uint64{
	smr.NoRecl: 0x9E3779B97F4A7C15,
	smr.HP:     0x2545F4914F6CDD1D,
	smr.EBR:    0xA24BAED4963EE407,
}

// guarded is the skip list under NoRecl, EBR or HP: the original
// algorithm, driven by each thread's guard.
type guarded struct {
	*guard.Manager[Node]
	head uint32
}

func newGuarded(m *guard.Manager[Node]) *guarded {
	g := m.Guard(0)
	head := g.Alloc()
	g.View.At(head).Height.Store(MaxLevel)
	return &guarded{Manager: m, head: head}
}

// Session implements smr.Set.
func (s *guarded) Session(tid int) smr.Session {
	seed := uint64(tid)*heightSeeds[s.Scheme()] + 1
	return &session{head: s.head, g: s.Guard(tid), rng: newLevelRng(seed), pending: arena.NoSlot}
}

// session is the Herlihy-Shavit skip list under one thread's guard — the
// reference implementation of the algorithm, whose control flow the OA
// variant normalizes. Under NoRecl a hop is plain loads through the view.
type session struct {
	head    uint32
	g       *guard.Guard[Node]
	rng     levelRng
	pending uint32
	preds   [MaxLevel]uint32
	succs   [MaxLevel]arena.Ptr
}

// find positions s.preds/s.succs around key, snipping marked nodes as it
// goes (Herlihy-Shavit find). It returns true when an unmarked bottom-level
// node with the key was found (then succs[0] is that node). Under HP the
// validation "pred.next[level] holds exactly the unmarked handle of curr"
// implies pred is not marked at that level, hence still the unique in-list
// predecessor, hence curr is linked and cannot yet be retired — the
// publication therefore races no scan (see internal/guard/hp.go).
func (s *session) find(key uint64) bool {
	g := s.g
	v := &g.View
retry:
	for {
		predSlot := s.head
		pred := v.At(predSlot)
		for level := MaxLevel - 1; level >= 0; level-- {
			curr := arena.Ptr(pred.Next[level].Load()).Unmark()
			for !curr.IsNil() {
				if !g.Validate(hpCur, curr, &pred.Next[level], curr) {
					g.Restart()
					continue retry
				}
				n := v.At(curr.Slot())
				succ := arena.Ptr(n.Next[level].Load())
				if !g.Validate(hpNext, succ, &n.Next[level], succ) {
					g.Restart()
					continue retry
				}
				if succ.Marked() {
					// curr is deleted at this level: snip it out. The CAS
					// expects an unmarked pred.next, so a deleted pred
					// fails here and restarts the find.
					if !pred.Next[level].CompareAndSwap(uint64(curr), uint64(succ.Unmark())) {
						g.Restart()
						continue retry
					}
					curr = succ.Unmark()
					continue
				}
				if n.Key.Load() < key {
					predSlot, pred = curr.Slot(), n
					g.Protect(hpPred+level, curr)
					curr = succ
				} else {
					break
				}
			}
			s.preds[level] = predSlot
			s.succs[level] = curr
			g.Protect(hpSucc+level, curr)
		}
		f := s.succs[0]
		return !f.IsNil() && v.At(f.Slot()).Key.Load() == key
	}
}

// Contains reports membership. Under HP it runs find, as in Michael's
// hazard-pointer algorithms: the read-only operation pays the full
// snipping protocol — the HP overhead the paper measures on read-mostly
// workloads.
func (s *session) Contains(key uint64) bool {
	g := s.g
	if g.HP() {
		found := s.find(key)
		g.End()
		return found
	}
	g.Begin()
	found := s.contains(key)
	g.End()
	return found
}

// contains is the original wait-free membership test: it skips marked
// nodes without snipping (no writes at all). HP cannot run it: traversing
// through a marked node would break the validation chain, because a
// deleted node's frozen next pointer cannot vouch for its successor's
// liveness (see package guard).
func (s *session) contains(key uint64) bool {
	v := &s.g.View
	predSlot := s.head
	var curr arena.Ptr
	for level := MaxLevel - 1; level >= 0; level-- {
		curr = arena.Ptr(v.At(predSlot).Next[level].Load()).Unmark()
		for !curr.IsNil() {
			n := v.At(curr.Slot())
			succ := arena.Ptr(n.Next[level].Load())
			if succ.Marked() {
				curr = succ.Unmark()
				continue
			}
			if n.Key.Load() < key {
				predSlot = curr.Slot()
				curr = succ
			} else {
				break
			}
		}
		if !curr.IsNil() && v.At(curr.Slot()).Key.Load() == key {
			return true
		}
	}
	return false
}

// Insert adds key; false if present. The bottom-level link is the
// linearization point; upper levels are linked best-effort afterwards
// (Fraser's corrected protocol).
func (s *session) Insert(key uint64) bool {
	g := s.g
	v := &g.View
	g.Begin()
	height := s.rng.next()
	for {
		if s.find(key) {
			g.End()
			return false
		}
		if s.pending == arena.NoSlot {
			s.pending = g.Alloc()
		}
		n := v.At(s.pending)
		n.Key.Store(key)
		n.Height.Store(height)
		for l := uint32(0); l < height; l++ {
			n.Next[l].Store(uint64(s.succs[l]))
		}
		newPtr := arena.MakePtr(s.pending)
		g.Protect(hpExtra, newPtr) // survives the re-finds below
		if !v.At(s.preds[0]).Next[0].CompareAndSwap(uint64(s.succs[0]), uint64(newPtr)) {
			g.Restart()
			continue
		}
		s.pending = arena.NoSlot
		s.linkUpper(n, newPtr, height, key)
		g.End()
		return true
	}
}

// linkUpper links levels 1..height-1 of a node already linked at the
// bottom, stopping as soon as the node is marked (a deleter took over).
func (s *session) linkUpper(n *Node, newPtr arena.Ptr, height uint32, key uint64) {
	g := s.g
	v := &g.View
	for l := uint32(1); l < height; l++ {
		for {
			nl := arena.Ptr(n.Next[l].Load())
			if nl.Marked() {
				return
			}
			succ := s.succs[l]
			if succ == newPtr {
				// The refreshed search already sees us at this level.
				break
			}
			if nl != succ {
				// Re-point our own next before exposing the level.
				if !n.Next[l].CompareAndSwap(uint64(nl), uint64(succ)) {
					return // concurrently marked
				}
			}
			if v.At(s.preds[l]).Next[l].CompareAndSwap(uint64(succ), uint64(newPtr)) {
				break
			}
			g.Restart()
			s.find(key)
			if s.succs[0] != newPtr {
				return // we were deleted while linking
			}
		}
	}
}

// Delete removes key; false if absent. Marks from the top level down; the
// bottom mark is the linearization point and its winner cleans up and
// retires.
func (s *session) Delete(key uint64) bool {
	g := s.g
	v := &g.View
	g.Begin()
	for {
		if !s.find(key) {
			g.End()
			return false
		}
		victim := s.succs[0]
		g.Protect(hpExtra, victim) // survives the cleanup find
		n := v.At(victim.Slot())
		height := n.Height.Load()
		for l := int(height) - 1; l >= 1; l-- {
			for {
				sl := arena.Ptr(n.Next[l].Load())
				if sl.Marked() {
					break
				}
				n.Next[l].CompareAndSwap(uint64(sl), uint64(sl.Mark()))
			}
		}
		for {
			sl := arena.Ptr(n.Next[0].Load())
			if sl.Marked() {
				g.End()
				return false // another deleter won
			}
			if n.Next[0].CompareAndSwap(uint64(sl), uint64(sl.Mark())) {
				s.find(key) // snip the node out of every level
				g.Clear()
				g.Retire(victim.Slot())
				g.End()
				return true
			}
		}
	}
}
