package skiplist

import (
	"repro/internal/arena"
	"repro/internal/smr"
)

// ScanSession extends the set session with ordered range scans — the
// operation an ordered index exists for, and a natural read-only extension
// of the paper's scheme: the scan is a generator-style method whose every
// hop is an optimistic read validated by the warning check.
type ScanSession interface {
	smr.Session
	// RangeScan visits the keys in [from, to] in ascending order until
	// visit returns false. The scan is weakly consistent (as for
	// ConcurrentSkipListMap): each visited key was a member at some moment
	// during the scan, keys are visited at most once and in order, and
	// keys inserted or deleted concurrently may or may not be seen. A
	// warning-triggered restart resumes after the last delivered key, so
	// reclamation never causes duplicates or stale deliveries.
	RangeScan(from, to uint64, visit func(key uint64) bool)
}

// ScanSession returns the per-thread handle with range-scan support.
func (s *OASkipList) ScanSession(tid int) ScanSession {
	return s.Session(tid).(*oaSession)
}

// RangeScan implements ScanSession.
func (s *oaSession) RangeScan(from, to uint64, visit func(uint64) bool) {
	th := s.c.Th
	cursor := from
	for cursor <= to {
		// Descend to the first bottom-level node with key >= cursor
		// (read-only; Contains-style skips over marked nodes).
	restart:
		predSlot := s.head
		var curr arena.Ptr
		for level := MaxLevel - 1; level >= 0; level-- {
			curr = th.Node(predSlot).Next[level].Load().Unmark()
			if th.Check() {
				goto restart
			}
			for !curr.IsNil() {
				n := th.Node(curr.Slot())
				succ := n.Next[level].Load()
				ckey := n.Key.Load()
				if th.Check() {
					goto restart
				}
				if succ.Marked() {
					curr = succ.Unmark()
					continue
				}
				if ckey < cursor {
					predSlot = curr.Slot()
					curr = succ
				} else {
					break
				}
			}
		}
		// Walk the bottom level, delivering keys only after the warning
		// check that validates them; on a restart the cursor guarantees
		// no duplicates.
		for {
			if curr.IsNil() {
				return
			}
			n := th.Node(curr.Slot())
			succ := n.Next[0].Load()
			ckey := n.Key.Load()
			if th.Check() {
				goto restart
			}
			if succ.Marked() {
				curr = succ.Unmark()
				continue
			}
			if ckey > to {
				return
			}
			if ckey >= cursor {
				if !visit(ckey) {
					return
				}
				if ckey == ^uint64(0) {
					return
				}
				cursor = ckey + 1
			}
			curr = succ
		}
	}
}
