package skiplist

import (
	"repro/internal/arena"
	"repro/internal/norecl"
	"repro/internal/obs"
	"repro/internal/smr"
)

// plainMem is what the plain skip list needs of a scheme thread beyond
// its view: a slot to link and a place to send an unlinked one.
type plainMem interface {
	Alloc() uint32
	Retire(slot uint32)
}

// NoReclSkipList is the skip list without reclamation — the baseline
// variant: the plain skip list with a retire that only counts.
type NoReclSkipList struct {
	mgr  *norecl.Manager[Node]
	head uint32
}

// NewNoRecl builds an empty skip list sized by cfg.
func NewNoRecl(cfg norecl.Config) *NoReclSkipList {
	m := norecl.NewManager[Node](cfg, ResetNode)
	head := m.Thread(0).Alloc()
	m.Arena().At(head).Height.Store(MaxLevel)
	return &NoReclSkipList{mgr: m, head: head}
}

// Manager exposes the underlying manager.
func (s *NoReclSkipList) Manager() *norecl.Manager[Node] { return s.mgr }

// Scheme implements smr.Set.
func (s *NoReclSkipList) Scheme() smr.Scheme { return smr.NoRecl }

// Stats implements smr.Set.
func (s *NoReclSkipList) Stats() smr.Stats { return s.mgr.Stats() }

// RegisterObs implements obs.Registrar by forwarding to the scheme manager.
func (s *NoReclSkipList) RegisterObs(reg *obs.Registry) { s.mgr.RegisterObs(reg) }

// Session implements smr.Set: the plain skip list itself.
func (s *NoReclSkipList) Session(tid int) smr.Session {
	t := s.mgr.Thread(tid)
	return newPlainSession(s.head, t.View(), t, uint64(tid)*0x9E3779B97F4A7C15+1)
}

// plainSession is the skip list with no per-read barrier: raw loads
// through the thread's directory view — the reference implementation of
// the algorithm, whose control flow the OA and HP variants instrument.
// It is the whole of NoRecl and, inside an epoch bracket, the whole of
// EBR (ebr.go). The view is the concrete *arena.View the scheme thread
// already holds, so the baseline pays nothing for being shared.
type plainSession struct {
	head    uint32
	view    *arena.View[Node]
	mem     plainMem
	rng     levelRng
	pending uint32
	preds   [MaxLevel]uint32
	succs   [MaxLevel]arena.Ptr
}

func newPlainSession(head uint32, view *arena.View[Node], mem plainMem, seed uint64) *plainSession {
	return &plainSession{head: head, view: view, mem: mem, rng: newLevelRng(seed), pending: arena.NoSlot}
}

// find positions s.preds/s.succs around key, snipping marked nodes as it
// goes (Herlihy-Shavit find). It returns true when an unmarked bottom-level
// node with the key was found (then succs[0] is that node).
func (s *plainSession) find(key uint64) bool {
	v := s.view
retry:
	for {
		predSlot := s.head
		for level := MaxLevel - 1; level >= 0; level-- {
			curr := arena.Ptr(v.At(predSlot).Next[level].Load()).Unmark()
			for !curr.IsNil() {
				n := v.At(curr.Slot())
				succ := arena.Ptr(n.Next[level].Load())
				if succ.Marked() {
					// curr is deleted at this level: snip it out. The CAS
					// expects an unmarked pred.next, so a deleted pred
					// fails here and restarts the find.
					if !v.At(predSlot).Next[level].CompareAndSwap(uint64(curr), uint64(succ.Unmark())) {
						continue retry
					}
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
			s.preds[level] = predSlot
			s.succs[level] = curr
		}
		f := s.succs[0]
		return !f.IsNil() && v.At(f.Slot()).Key.Load() == key
	}
}

// Contains is the wait-free membership test: it skips marked nodes without
// snipping (no writes at all).
func (s *plainSession) Contains(key uint64) bool {
	v := s.view
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
func (s *plainSession) Insert(key uint64) bool {
	v := s.view
	height := s.rng.next()
	for {
		if s.find(key) {
			return false
		}
		if s.pending == arena.NoSlot {
			s.pending = s.mem.Alloc()
		}
		n := v.At(s.pending)
		n.Key.Store(key)
		n.Height.Store(height)
		for l := uint32(0); l < height; l++ {
			n.Next[l].Store(uint64(s.succs[l]))
		}
		newPtr := arena.MakePtr(s.pending)
		if !v.At(s.preds[0]).Next[0].CompareAndSwap(uint64(s.succs[0]), uint64(newPtr)) {
			continue
		}
		s.pending = arena.NoSlot
		s.linkUpper(n, newPtr, height, key)
		return true
	}
}

// linkUpper links levels 1..height-1 of a node already linked at the
// bottom, stopping as soon as the node is marked (a deleter took over).
func (s *plainSession) linkUpper(n *Node, newPtr arena.Ptr, height uint32, key uint64) {
	v := s.view
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
			s.find(key)
			if s.succs[0] != newPtr {
				return // we were deleted while linking
			}
		}
	}
}

// Delete removes key; false if absent. Marks from the top level down; the
// bottom mark is the linearization point and its winner cleans up (and
// retires — under NoRecl that only counts).
func (s *plainSession) Delete(key uint64) bool {
	v := s.view
	for {
		if !s.find(key) {
			return false
		}
		victim := s.succs[0]
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
				return false // another deleter won
			}
			if n.Next[0].CompareAndSwap(uint64(sl), uint64(sl.Mark())) {
				s.find(key) // snip the node out of every level
				s.mem.Retire(victim.Slot())
				return true
			}
		}
	}
}
