// Package arena provides the handle-based node storage that underpins every
// reclamation scheme in this repository.
//
// The paper (Cohen & Petrank, SPAA'15) assumes a user-level pooled allocator
// in which reading a previously allocated address never faults, even after
// the object was recycled (Assumption 3.1). Go's garbage collector makes a
// literal port impossible: native pointers can never dangle. We therefore
// substitute integer handles into flat, chunked slabs of node structs. A
// recycled handle still indexes valid memory — it merely observes the slot's
// *next* occupant, which is precisely the stale-read hazard the optimistic
// access scheme detects and rolls back.
//
// An arena backs exactly the slots it is asked for: New(n) allocates one
// flat region of n nodes, and only growth past it allocates whole chunks
// of ChunkSize slots, starting at the chunk boundary after the region. A pool sized from a bound (the block pools
// of internal/pools) thus pays for its bound and no more.
//
// An arena keeps nothing per slot but the node. Whether a slot was
// recycled is the reclamation scheme's business, and production code
// never asks: tests observe recycles through the managers' recycle hooks
// (smr.Gens), so a generation is a test-only observation.
//
// The arena never shrinks and neither the flat region nor a chunk is ever
// moved, so a handle obtained at any time in the past remains safe to
// dereference forever, establishing Assumption 3.1 by construction.
package arena

import (
	"fmt"
	"sync/atomic"
)

// Ptr is a packed, markable handle to an arena slot. In registers it is a
// uint64; in memory it lives in a Link, the 32-bit link word of every
// node and root.
//
// Layout (low to high bits):
//
//	bit 0      delete mark (the "marked pointer" of Harris' linked list)
//	bits 1..31 slot index + 1 (zero means nil)
//
// An arena hands out at most MaxSlots slots, so a handle and its mark
// always fit the 32 bits of a Link.
//
// The zero Ptr is the nil pointer. Marks survive Slot extraction via
// Unmark, mirroring the unmark(O) operation the paper requires of the data
// structure (§3.3).
type Ptr uint64

// NilPtr is the null handle. Its mark bit is clear and IsNil reports true.
const NilPtr Ptr = 0

// MaxSlots is the number of slots an arena may hold: slots 0..MaxSlots-1,
// the largest whose marked handle, (slot+1)<<1|1, still fits 32 bits.
const MaxSlots = 1<<31 - 1

// NoSlot is a sentinel slot index that is never returned by an arena.
const NoSlot uint32 = ^uint32(0)

// MakePtr builds an unmarked handle referring to slot.
func MakePtr(slot uint32) Ptr {
	return Ptr(uint64(slot)+1) << 1
}

// IsNil reports whether p refers to no slot (ignoring the mark bit).
func (p Ptr) IsNil() bool { return p>>1 == 0 }

// Slot returns the slot index p refers to. It must not be called on a nil
// handle; debug builds of callers guard with IsNil.
func (p Ptr) Slot() uint32 { return uint32(p>>1) - 1 }

// SlotOr returns the slot index, or def when p is nil.
func (p Ptr) SlotOr(def uint32) uint32 {
	if p.IsNil() {
		return def
	}
	return p.Slot()
}

// Marked reports whether the delete mark (bit 0) is set.
func (p Ptr) Marked() bool { return p&1 != 0 }

// Mark returns p with the delete mark set.
func (p Ptr) Mark() Ptr { return p | 1 }

// Unmark returns p with the delete mark cleared. This is the paper's
// unmark(O) operation.
func (p Ptr) Unmark() Ptr { return p &^ 1 }

// String renders the handle for debugging: "nil", "#12", or "#12*" when
// marked.
func (p Ptr) String() string {
	if p.IsNil() {
		if p.Marked() {
			return "nil*"
		}
		return "nil"
	}
	if p.Marked() {
		return fmt.Sprintf("#%d*", p.Slot())
	}
	return fmt.Sprintf("#%d", p.Slot())
}

// Link is a link word: a node's successor or a structure's root, holding a
// Ptr in 32 bits. Every link word of every structure is a Link; payload
// words stay atomic.Uint64.
type Link struct{ w atomic.Uint32 }

// Load atomically loads the handle.
func (l *Link) Load() Ptr { return Ptr(l.w.Load()) }

// Store atomically stores p.
func (l *Link) Store(p Ptr) { l.w.Store(uint32(p)) }

// CompareAndSwap executes the compare-and-swap of the link word: old → new.
func (l *Link) CompareAndSwap(old, new Ptr) bool {
	return l.w.CompareAndSwap(uint32(old), uint32(new))
}
