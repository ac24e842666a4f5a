package arena

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ChunkShift fixes the chunk size to 1<<ChunkShift slots. Chunks are never
// moved or freed once published, which is what makes stale handles safe to
// dereference (Assumption 3.1 of the paper).
const ChunkShift = 14

// ChunkSize is the number of slots per chunk.
const ChunkSize = 1 << ChunkShift

const chunkMask = ChunkSize - 1

// Arena is a grow-only slab allocator of node structs of type T addressed
// by 32-bit slot indices. It hands out fresh capacity via Reserve; actual
// alloc/free recycling of slots is the job of the reclamation schemes built
// on top (which run slots through the paper's pool pipeline).
//
// Concurrency: At may be called from any goroutine at any time, including
// with slot indices that were recycled long ago. Reserve may be
// called concurrently with readers; growth publishes a copy-on-write chunk
// directory, so readers never observe a partially built one.
type Arena[T any] struct {
	mu    sync.Mutex                   // serializes growth
	dir   atomic.Pointer[directory[T]] // copy-on-write chunk directory
	limit atomic.Uint32                // one past the last slot handed out
	capa  atomic.Uint32                // one past the last slot backed

	// flat is the View of every thread: the one allocation of exactly
	// New's initial capacity. The directory does not window onto it: its
	// entries for the chunks the region touches stay nil.
	flat View[T]
}

// directory holds, per chunk, its nodes.
type directory[T any] struct {
	nodes []*[ChunkSize]T
}

// New creates an arena whose first n slots are backed by one contiguous
// allocation of exactly n nodes: the flat region of every View. Growth
// past it starts at the next chunk boundary, so the tail of the region's
// last chunk is never handed out. New panics,
// before allocating anything, if n exceeds MaxSlots.
func New[T any](n int) *Arena[T] {
	checkSlots(n)
	a := &Arena[T]{}
	chunks := (n + chunkMask) >> ChunkShift
	a.dir.Store(&directory[T]{nodes: make([]*[ChunkSize]T, chunks)})
	a.flat.a = a
	if n > 0 {
		a.flat.nodes = make([]T, n)
	}
	a.capa.Store(uint32(n))
	return a
}

// At returns the node stored in slot. The returned pointer stays valid
// forever; it may alias a slot that has since been recycled (that is the
// point of the optimistic access design).
func (a *Arena[T]) At(slot uint32) *T { return a.flat.At(slot) }

// Cap returns one past the last slot backed by memory: New's n until the
// arena first grows, a chunk boundary after.
func (a *Arena[T]) Cap() uint32 { return a.capa.Load() }

// Limit returns one past the last slot Reserve has handed out. Below it,
// only the skipped tail of the flat region's last chunk was never handed
// out.
func (a *Arena[T]) Limit() uint32 { return a.limit.Load() }

// Reserve hands out n brand-new consecutive slots and returns the first
// index. Slots that do not fit the flat region start at the chunk boundary
// after it. Reserve grows the arena as needed, and panics, before growing,
// if the arena would then hold more than MaxSlots slots. It is safe for
// concurrent use.
func (a *Arena[T]) Reserve(n int) uint32 {
	if n <= 0 {
		panic(fmt.Sprintf("arena: Reserve(%d)", n))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	base := a.limit.Load()
	flat := uint32(len(a.flat.nodes))
	if end := (flat + chunkMask) &^ chunkMask; flat < end && base < end && int(base)+n > int(flat) {
		base = end // the directory has no chunk for the region's tail
	}
	checkSlots(int(base) + n)
	need := base + uint32(n)
	if need > a.capa.Load() {
		a.grow(need)
	}
	a.limit.Store(need)
	return base
}

// checkSlots refuses an arena of more than MaxSlots slots: a handle to
// any slot beyond would not fit a Link.
func checkSlots(n int) {
	if n > MaxSlots {
		panic(fmt.Sprintf("arena: %d slots exceed the link limit of %d", n, MaxSlots))
	}
}

// grow backs every chunk below need that the directory lacks with one new
// allocation, appended after the directory's last entry. Caller holds a.mu.
func (a *Arena[T]) grow(need uint32) {
	chunks := (int(need) + chunkMask) >> ChunkShift
	old := a.dir.Load()
	have := len(old.nodes)
	nodes := make([]T, (chunks-have)<<ChunkShift)
	next := &directory[T]{nodes: append(make([]*[ChunkSize]T, 0, chunks), old.nodes...)}
	for off := 0; off < len(nodes); off += ChunkSize {
		next.nodes = append(next.nodes, (*[ChunkSize]T)(nodes[off:]))
	}
	a.dir.Store(next)
	a.capa.Store(uint32(chunks) << ChunkShift)
}
