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
// Concurrency: At and Gen may be called from any goroutine at any time,
// including with slot indices that were recycled long ago. Reserve may be
// called concurrently with readers; growth publishes a copy-on-write chunk
// directory, so readers never observe a partially built one.
type Arena[T any] struct {
	mu    sync.Mutex                   // serializes growth
	dir   atomic.Pointer[directory[T]] // copy-on-write chunk directory
	limit atomic.Uint32                // slots handed out so far
	capa  atomic.Uint32                // slots backed by chunks

	// flat is the View of every thread: the one allocation behind New's
	// initial capacity, whose windows are the directory's first chunks.
	flat View[T]
}

// directory holds, per chunk, its nodes and their generation counters.
type directory[T any] struct {
	nodes []*[ChunkSize]T
	gens  []*genChunk
}

type genChunk [ChunkSize]atomic.Uint32

// New creates an arena with capacity for at least initialCap slots, backed
// by one contiguous allocation (the flat region of every View).
func New[T any](initialCap int) *Arena[T] {
	a := &Arena[T]{}
	a.dir.Store(&directory[T]{})
	a.flat.a = a
	if initialCap > 0 {
		a.flat.nodes, a.flat.gens = a.grow(uint32(initialCap))
	}
	return a
}

// At returns the node stored in slot. The returned pointer stays valid
// forever; it may alias a slot that has since been recycled (that is the
// point of the optimistic access design).
func (a *Arena[T]) At(slot uint32) *T { return a.flat.At(slot) }

// Gen returns the generation counter of slot. Schemes bump it on recycle;
// tests use it to detect use-after-free in schemes that forbid it (HP, EBR)
// and to validate that OA never commits work based on a stale slot.
func (a *Arena[T]) Gen(slot uint32) uint32 { return a.flat.gen(slot).Load() }

// BumpGen increments the generation counter of slot, marking one recycle.
func (a *Arena[T]) BumpGen(slot uint32) { a.flat.BumpGen(slot) }

// Cap returns the number of slots currently backed by chunks.
func (a *Arena[T]) Cap() uint32 { return a.capa.Load() }

// Limit returns the number of slots handed out by Reserve so far.
func (a *Arena[T]) Limit() uint32 { return a.limit.Load() }

// Reserve hands out n brand-new consecutive slots and returns the first
// index. It grows the arena as needed. Reserve is safe for concurrent use.
func (a *Arena[T]) Reserve(n int) uint32 {
	if n <= 0 {
		panic(fmt.Sprintf("arena: Reserve(%d)", n))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	base := a.limit.Load()
	need := base + uint32(n)
	if need < base {
		panic("arena: slot space exhausted")
	}
	if need > a.capa.Load() {
		a.grow(need)
	}
	a.limit.Store(need)
	return base
}

// grow extends capacity to at least need slots and returns the one
// allocation that backs the new chunks (nil if none were needed). Caller
// holds a.mu (or is the constructor).
func (a *Arena[T]) grow(need uint32) ([]T, []atomic.Uint32) {
	chunks := (int(need) + ChunkSize - 1) >> ChunkShift
	old := a.dir.Load()
	have := len(old.nodes)
	if have >= chunks {
		return nil, nil
	}
	nodes := make([]T, (chunks-have)<<ChunkShift)
	gens := make([]atomic.Uint32, len(nodes))
	next := &directory[T]{
		nodes: append(make([]*[ChunkSize]T, 0, chunks), old.nodes...),
		gens:  append(make([]*genChunk, 0, chunks), old.gens...),
	}
	for off := 0; off < len(nodes); off += ChunkSize {
		next.nodes = append(next.nodes, (*[ChunkSize]T)(nodes[off:]))
		next.gens = append(next.gens, (*genChunk)(gens[off:]))
	}
	a.dir.Store(next)
	a.capa.Store(uint32(chunks) << ChunkShift)
	return nodes, gens
}
