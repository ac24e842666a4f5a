package arena

import "sync/atomic"

// View is how a thread reaches nodes: the arena's flat region (the one
// allocation behind New's initial capacity) and the arena itself. A slot
// inside the flat region is one compare and one index; any other slot,
// created by later growth, goes through the arena's current chunk
// directory (one atomic pointer load, a plain MOV on amd64). Both paths
// reach the same memory, since the directory's first chunks are windows
// onto the flat region, and neither can be stale: the flat region never
// changes, and the directory is read afresh on every lookup. Reserve
// publishes a directory covering a slot before it returns the slot, so any
// slot handle a thread holds is covered by the directory it loads.
//
// The fallback is written out rather than called: a call that does not
// inline costs 57 of the inliner's budget of 80, which would keep At, and
// every Node method that wraps it, out of line.
type View[T any] struct {
	nodes []T
	gens  []atomic.Uint32
	a     *Arena[T]
}

// View returns a view of the arena. A View never goes stale, so it may be
// taken once and kept, and copied freely.
func (a *Arena[T]) View() View[T] { return a.flat }

// At returns the node stored in slot, like Arena.At.
func (v *View[T]) At(slot uint32) *T {
	if int(slot) < len(v.nodes) {
		return &v.nodes[slot]
	}
	d := v.a.dir.Load()
	return &d.nodes[slot>>ChunkShift][slot&chunkMask]
}

// BumpGen increments the generation counter of slot, like Arena.BumpGen.
func (v *View[T]) BumpGen(slot uint32) { v.gen(slot).Add(1) }

// gen returns the generation counter of slot.
func (v *View[T]) gen(slot uint32) *atomic.Uint32 {
	if int(slot) < len(v.gens) {
		return &v.gens[slot]
	}
	d := v.a.dir.Load()
	return &d.gens[slot>>ChunkShift][slot&chunkMask]
}
