// Package skiplist implements the Herlihy-Shavit lock-free skip list ([12],
// §14.4, after Fraser) twice: in the normalized form the paper requires,
// which is optimistic access (oa.go, on the oakit barriers), and as the
// original algorithm (plain.go), which runs NoRecl, EBR and HP through a
// per-thread guard (package guard). The paper does not build an anchors
// skip list (§5).
//
// Structure notes (shared by all variants):
//
//   - A node carries MaxLevel next pointers; its height is chosen
//     geometrically (p = 1/2) at insert time. The head sentinel has full
//     height and is never marked or retired; nil acts as +∞ (no tail
//     sentinel).
//   - delete marks the node's next pointers from the top level down; the
//     bottom-level mark is the linearization point. In normalized form the
//     CAS generator emits all of these marks as one CAS list — at most
//     MaxLevel+1 descriptors, matching the paper's "MAXLEN + 1 CASes".
//   - insert links the bottom level first (linearization), then links the
//     upper levels one CAS-generator round at a time, refreshing the
//     search on every conflict (Fraser's corrected protocol: the new
//     node's own next pointer is re-pointed before each relink attempt and
//     linking stops the moment the node is marked).
//   - The deleter that wins the bottom-level mark runs one clean search to
//     physically unlink the node at every level and only then retires it —
//     the single-retirer, fully-unlinked discipline proper retirement
//     requires (§3.3).
package skiplist

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/guard"
	"repro/internal/sizing"
	"repro/internal/smr"
)

// New builds an empty skip list under scheme sc.
func New(sc smr.Scheme, c sizing.Config) (smr.Set, error) {
	if sc == smr.OA {
		return NewOA(c.OA()), nil
	}
	m, err := guard.New(sc, c, guard.Spec[Node]{Name: "skip list", Reset: ResetNode, HPs: hpPerThread})
	if err != nil {
		return nil, err
	}
	return newGuarded(m), nil
}

// MaxLevel is the paper's MAXLEN: the maximum node height. 2^20 nodes keep
// level occupancy healthy for every benchmark size used here.
const MaxLevel = 20

// Node is the skip-list node. All fields are atomics: under OA a node may
// be read after its slot was recycled.
type Node struct {
	// Key is the node's key; written between allocation and linking.
	Key atomic.Uint64
	// Height is the number of levels the node occupies (1..MaxLevel);
	// written before the node is linked.
	Height atomic.Uint32
	// Next[l] is the successor handle at level l; bit 0 is the logical
	// delete mark of that level.
	Next [MaxLevel]arena.Link
}

// ResetNode zeroes a node (the allocation memset hook).
func ResetNode(n *Node) {
	n.Key.Store(0)
	n.Height.Store(0)
	for l := range n.Next {
		n.Next[l].Store(arena.NilPtr)
	}
}

// levelRng is a per-thread xorshift64* generator for node heights.
type levelRng struct{ s uint64 }

func newLevelRng(seed uint64) levelRng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return levelRng{s: seed}
}

// next returns a height in 1..MaxLevel, geometric with p = 1/2.
func (r *levelRng) next() uint32 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	h := uint32(1)
	v := r.s
	for v&1 == 1 && h < MaxLevel {
		h++
		v >>= 1
	}
	return h
}
