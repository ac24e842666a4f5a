// Package hashtable implements Michael's lock-free hash table (SPAA 2002):
// a fixed array of buckets, each an independent Harris-Michael linked list,
// reusing the list engines of package list. The paper evaluates it with a
// load factor of 0.75, making the average bucket list shorter than one
// node — operations are extremely short, which is the regime where
// per-operation costs (EBR's announcements) dominate and per-read costs
// (HP's fences) matter less (Figure 1, "Hash").
//
// The bucket count is fixed at construction (sized from the expected
// element count and load factor), as in the paper's benchmark. Each bucket
// owns a sentinel head node that is never retired.
//
// An Anchors hash table is intentionally absent: the paper does not
// implement one because bucket lists average under one node, where anchors'
// amortization has nothing to amortize (§5).
package hashtable

import (
	"repro/internal/core"
	"repro/internal/list"
	"repro/internal/obs"
	"repro/internal/sizing"
	"repro/internal/smr"
)

// DefaultLoadFactor is the paper's benchmark load factor.
const DefaultLoadFactor = 0.75

// Buckets returns the bucket count for an expected size at a load factor,
// rounded up to a power of two so that indexing is a mask.
func Buckets(expected int, loadFactor float64) int {
	if loadFactor <= 0 {
		loadFactor = DefaultLoadFactor
	}
	want := int(float64(expected)/loadFactor) + 1
	b := 1
	for b < want {
		b <<= 1
	}
	return b
}

// Table is the hash table on list engine E: one engine, one sentinel head
// per bucket.
type Table[E list.Engine] struct {
	e     E
	heads []uint32
	mask  uint32
}

// newTable allocates the bucket sentinels of a table for expected
// elements; the engine's capacity must already include them.
func newTable[E list.Engine](e E, expected int) *Table[E] {
	h := &Table[E]{e: e, heads: make([]uint32, Buckets(expected, DefaultLoadFactor))}
	h.mask = uint32(len(h.heads) - 1)
	for i := range h.heads {
		h.heads[i] = e.NewHead()
	}
	return h
}

// Engine exposes the underlying list engine.
func (h *Table[E]) Engine() E { return h.e }

// Scheme implements smr.Set.
func (h *Table[E]) Scheme() smr.Scheme { return h.e.Scheme() }

// Stats implements smr.Set.
func (h *Table[E]) Stats() smr.Stats { return h.e.Stats() }

// RegisterObs implements obs.Registrar by forwarding to the scheme manager.
func (h *Table[E]) RegisterObs(reg *obs.Registry) { h.e.RegisterObs(reg) }

// Session implements smr.Set.
func (h *Table[E]) Session(tid int) smr.Session {
	return &session{t: h.e.Thread(tid), heads: h.heads, mask: h.mask}
}

// session routes a key to its bucket and runs the engine's head-relative
// operation there: one dispatch per operation, whatever the scheme.
type session struct {
	t     list.Thread
	heads []uint32
	mask  uint32
}

// head is Fibonacci multiplicative hashing onto the bucket mask.
func (s *session) head(key uint64) uint32 {
	return s.heads[uint32((key*0x9E3779B97F4A7C15)>>33)&s.mask]
}

func (s *session) Insert(key uint64) bool   { return s.t.InsertAt(s.head(key), key) }
func (s *session) Delete(key uint64) bool   { return s.t.DeleteAt(s.head(key), key) }
func (s *session) Contains(key uint64) bool { return s.t.ContainsAt(s.head(key), key) }

// The two tables. Each constructor adds the bucket sentinels to the
// capacity, so the configured Capacity is the live set plus δ.
type (
	// OA is the hash table under optimistic access.
	OA = Table[*list.OAEngine]
	// Guarded is the hash table under NoRecl, EBR or HP: the original
	// Harris-Michael bucket lists of list.GuardedEngine.
	Guarded = Table[*list.GuardedEngine]
)

// NewOA builds a table with expected elements.
func NewOA(cfg core.Config, expected int) *OA {
	cfg.Capacity += Buckets(expected, DefaultLoadFactor)
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
	c.Capacity += Buckets(expected, DefaultLoadFactor)
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
