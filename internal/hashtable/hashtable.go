// Package hashtable implements Michael's lock-free hash table (SPAA 2002):
// a fixed array of buckets, each an independent Harris-Michael linked list,
// reusing the list engines of package list. The paper evaluates it with a
// load factor of 0.75, making the average bucket list shorter than one
// node — operations are extremely short, which is the regime where
// per-operation costs (EBR's announcements) dominate and per-read costs
// (HP's fences) matter less (Figure 1, "Hash").
//
// The bucket count is fixed at construction (sized from the expected
// element count and load factor), as in the paper's benchmark. The buckets
// are Michael's array of list-head words (oakit.Buckets): a bucket is one
// word holding its first node's handle, not a node, so the configured
// Capacity is all entry nodes.
//
// An Anchors hash table is intentionally absent: the paper does not
// implement one because bucket lists average under one node, where anchors'
// amortization has nothing to amortize (§5).
package hashtable

import (
	"repro/internal/core"
	"repro/internal/list"
	"repro/internal/oakit"
	"repro/internal/obs"
	"repro/internal/sizing"
	"repro/internal/smr"
)

// Table is the hash table on list engine E: one engine, one root word per
// bucket.
type Table[E list.Engine] struct {
	e       E
	buckets oakit.Buckets
}

// newTable builds a table for expected elements on engine e.
func newTable[E list.Engine](e E, expected int) *Table[E] {
	return &Table[E]{e: e, buckets: oakit.NewBuckets(expected)}
}

// Engine exposes the underlying list engine.
func (h *Table[E]) Engine() E { return h.e }

// Buckets returns the bucket count.
func (h *Table[E]) Buckets() int { return len(h.buckets) }

// Scheme implements smr.Set.
func (h *Table[E]) Scheme() smr.Scheme { return h.e.Scheme() }

// Stats implements smr.Set.
func (h *Table[E]) Stats() smr.Stats { return h.e.Stats() }

// RegisterObs implements obs.Registrar by forwarding to the scheme manager.
func (h *Table[E]) RegisterObs(reg *obs.Registry) { h.e.RegisterObs(reg) }

// Session implements smr.Set.
func (h *Table[E]) Session(tid int) smr.Session {
	return &session{t: h.e.Thread(tid), buckets: h.buckets}
}

// session routes a key to its bucket and runs the engine's root-relative
// operation there: one dispatch per operation, whatever the scheme.
type session struct {
	t       list.Thread
	buckets oakit.Buckets
}

func (s *session) Insert(key uint64) bool   { return s.t.InsertAt(s.buckets.Root(key), key) }
func (s *session) Delete(key uint64) bool   { return s.t.DeleteAt(s.buckets.Root(key), key) }
func (s *session) Contains(key uint64) bool { return s.t.ContainsAt(s.buckets.Root(key), key) }

// The two tables.
type (
	// OA is the hash table under optimistic access.
	OA = Table[*list.OAEngine]
	// Guarded is the hash table under NoRecl, EBR or HP: the original
	// Harris-Michael bucket lists of list.GuardedEngine.
	Guarded = Table[*list.GuardedEngine]
)

// NewOA builds a table with expected elements.
func NewOA(cfg core.Config, expected int) *OA {
	return newTable(list.NewOAEngine(cfg), expected)
}

// NewGuarded builds a table with expected elements under sc, one of
// NoRecl, EBR and HP.
func NewGuarded(sc smr.Scheme, c sizing.Config, expected int) (*Guarded, error) {
	switch sc {
	case smr.NoRecl, smr.EBR, smr.HP:
	default:
		return nil, sizing.Unsupported("hash table", sc)
	}
	e, err := list.NewGuardedEngine(sc, c)
	if err != nil {
		return nil, err
	}
	return newTable(e, expected), nil
}

// New builds a table with expected elements under scheme sc.
func New(sc smr.Scheme, c sizing.Config, expected int) (smr.Set, error) {
	if sc == smr.OA {
		return NewOA(c.OA(), expected), nil
	}
	h, err := NewGuarded(sc, c, expected)
	if err != nil {
		return nil, err
	}
	return h, nil
}
