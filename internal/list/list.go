// Package list implements the Harris-Michael lock-free linked list
// (Michael, SPAA 2002) twice:
//
//	OAEngine      — optimistic access: the normalized form of Listing 1 /
//	                Appendix C, which is the chain of package oakit
//	GuardedEngine — the original algorithm (plain.go) under NoRecl, EBR,
//	                HP or Anchors, driven by a per-thread guard (package guard)
//
// Engines expose root-relative operations (InsertAt/DeleteAt/ContainsAt) so
// the hash table can run one engine across many bucket lists; Set binds an
// engine to a single root and implements smr.Set.
//
// The list is an ordered set of uint64 keys. A list starts at a root word
// holding the first node's arena.Ptr, as in Michael's bucket array: a
// root is not a node, so it is never marked, retired or reclaimed, and
// traversals read it without protection (Appendix E, optimization 1).
package list

import (
	"sync/atomic"

	"repro/internal/oakit"
	"repro/internal/obs"
	"repro/internal/sizing"
	"repro/internal/smr"
)

// Node is the list node: the kit's chain node with no payload, a key word
// and a next word. Every field is atomic: under the optimistic access
// scheme a thread may read a node after its slot was recycled and
// rewritten, so all cross-thread accesses must be data-race-free.
type Node = oakit.Node[struct{}]

// ResetNode zeroes a node; it is every engine's allocation reset hook
// (Algorithm 5's memset).
func ResetNode(n *Node) {
	n.Key.Store(0)
	n.Next.Store(0)
}

// Thread is a per-worker handle of an engine: the set operations relative
// to a list's root word.
type Thread interface {
	InsertAt(root *atomic.Uint64, key uint64) bool
	DeleteAt(root *atomic.Uint64, key uint64) bool
	ContainsAt(root *atomic.Uint64, key uint64) bool
}

// Engine is what the two list engines have in common: one scheme manager
// shared by any number of roots.
type Engine interface {
	// Thread binds worker id to the engine.
	Thread(id int) Thread
	Scheme() smr.Scheme
	Stats() smr.Stats
	obs.Registrar
}

// Set is a single linked-list set on engine E.
type Set[E Engine] struct {
	e    E
	root atomic.Uint64
}

// Engine exposes the underlying engine (stats, manager).
func (l *Set[E]) Engine() E { return l.e }

// Scheme implements smr.Set.
func (l *Set[E]) Scheme() smr.Scheme { return l.e.Scheme() }

// Stats implements smr.Set.
func (l *Set[E]) Stats() smr.Stats { return l.e.Stats() }

// RegisterObs implements obs.Registrar by forwarding to the scheme manager.
func (l *Set[E]) RegisterObs(reg *obs.Registry) { l.e.RegisterObs(reg) }

// Session implements smr.Set.
func (l *Set[E]) Session(tid int) smr.Session { return &session{t: l.e.Thread(tid), root: &l.root} }

type session struct {
	t    Thread
	root *atomic.Uint64
}

func (s *session) Insert(key uint64) bool   { return s.t.InsertAt(s.root, key) }
func (s *session) Delete(key uint64) bool   { return s.t.DeleteAt(s.root, key) }
func (s *session) Contains(key uint64) bool { return s.t.ContainsAt(s.root, key) }

// New builds an empty list under scheme sc.
func New(sc smr.Scheme, c sizing.Config) (smr.Set, error) {
	if sc == smr.OA {
		return NewOA(c.OA()), nil
	}
	e, err := NewGuardedEngine(sc, c)
	if err != nil {
		return nil, err
	}
	return &Set[*GuardedEngine]{e: e}, nil
}
