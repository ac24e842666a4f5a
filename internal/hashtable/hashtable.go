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
	"repro/internal/ebr"
	"repro/internal/hpscheme"
	"repro/internal/list"
	"repro/internal/norecl"
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

// The four tables. Each constructor takes the scheme's own config and adds
// the bucket sentinels to its capacity, so cfg.Capacity is the live set
// plus δ.
type (
	// OA is the hash table under optimistic access.
	OA = Table[*list.OAEngine]
	// HP is the hash table under hazard pointers.
	HP = Table[*list.HPEngine]
	// EBR is the hash table under epoch-based reclamation.
	EBR = Table[*list.EBREngine]
	// NoRecl is the hash table without reclamation.
	NoRecl = Table[*list.NoReclEngine]
)

// NewOA builds a table with expected elements.
func NewOA(cfg core.Config, expected int) *OA {
	cfg.Capacity += Buckets(expected, DefaultLoadFactor)
	return newTable(list.NewOAEngine(cfg), expected)
}

// NewHP builds a table with expected elements.
func NewHP(cfg hpscheme.Config, expected int) *HP {
	cfg.Capacity += Buckets(expected, DefaultLoadFactor)
	return newTable(list.NewHPEngine(cfg), expected)
}

// NewEBR builds a table with expected elements.
func NewEBR(cfg ebr.Config, expected int) *EBR {
	cfg.Capacity += Buckets(expected, DefaultLoadFactor)
	return newTable(list.NewEBREngine(cfg), expected)
}

// NewNoRecl builds a table with expected elements.
func NewNoRecl(cfg norecl.Config, expected int) *NoRecl {
	cfg.Capacity += Buckets(expected, DefaultLoadFactor)
	return newTable(list.NewNoReclEngine(cfg), expected)
}

// New builds a table with expected elements under scheme sc.
func New(sc smr.Scheme, c sizing.Config, expected int) (smr.Set, error) {
	switch sc {
	case smr.NoRecl:
		return NewNoRecl(c.NoRecl(), expected), nil
	case smr.OA:
		return NewOA(c.OA(), expected), nil
	case smr.HP:
		return NewHP(c.HP(), expected), nil
	case smr.EBR:
		return NewEBR(c.EBR(), expected), nil
	}
	return nil, sizing.Unsupported("hash table", sc)
}
