// Package queue implements the Michael-Scott lock-free FIFO queue twice: in
// normalized form under optimistic access (oa.go), and as the original
// algorithm under NoRecl, EBR and HP, driven by a per-thread guard
// (plain.go, package guard). The queue is not part of the paper's
// evaluation; it is the natural extension exercise: the normalized form of
// Timnat & Petrank covers it (§3.2 "it covers all concurrent data
// structures that we are aware of"), and it stresses a hazard the ordered
// sets do not — the dequeued sentinel's next pointer must never be
// observed as nil again before the node is recycled, or a lagging enqueue
// could link onto a dead node. Under the optimistic access scheme that
// protection falls out of the standard argument: the lagging enqueue's
// owner hazard pointers and sealing warning check ensure its executor CAS
// either targets a live node or restarts.
//
// The head and tail live in plain shared link words (they are structure
// roots, not nodes, so the reclamation schemes never recycle them); CASes
// on them need no object protection, but their pointer *operands* do —
// exactly the distinction Algorithm 2 draws.
//
// The OA form is the kit's queue (oakit.Enqueue, Head, Take) with a
// one-word payload; the original algorithm shares its node and its two
// root words (oakit.Queue).
package queue

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/guard"
	"repro/internal/oakit"
	"repro/internal/sizing"
	"repro/internal/smr"
)

// Node is the queue node: the kit's queue node with a one-word payload,
// the enqueued value, written between allocation and linking. All fields
// are atomic (stale reads under OA).
type Node = oakit.QNode[atomic.Uint64]

// ResetNode zeroes a node (the allocation memset hook).
func ResetNode(n *Node) {
	n.V.Store(0)
	n.Next.Store(arena.NilPtr)
}

// New builds an empty queue under scheme sc.
func New(sc smr.Scheme, c sizing.Config) (smr.Queue, error) {
	if sc == smr.OA {
		return NewOA(c.OA()), nil
	}
	m, err := guard.New(sc, c, guard.Spec[Node]{Name: "queue", Reset: ResetNode, HPs: 2})
	if err != nil {
		return nil, err
	}
	return newGuarded(m), nil
}
