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
// table, so readers never observe a partially built table.
type Arena[T any] struct {
	mu    sync.Mutex                      // serializes growth
	table atomic.Pointer[[]*[ChunkSize]T] // copy-on-write chunk directory
	gens  atomic.Pointer[[]*genChunk]     // parallel generation counters
	limit atomic.Uint32                   // slots handed out so far
	capa  atomic.Uint32                   // slots backed by chunks

	// flat and flatGens are the one allocation behind New's initial
	// capacity: the directory's first chunks are windows onto them.
	flat     []T
	flatGens []atomic.Uint32
}

type genChunk [ChunkSize]atomic.Uint32

// New creates an arena with capacity for at least initialCap slots, backed
// by one contiguous allocation (see Flat).
func New[T any](initialCap int) *Arena[T] {
	a := &Arena[T]{}
	empty := make([]*[ChunkSize]T, 0)
	emptyGens := make([]*genChunk, 0)
	a.table.Store(&empty)
	a.gens.Store(&emptyGens)
	if initialCap > 0 {
		a.flat, a.flatGens = a.grow(uint32(initialCap))
	}
	return a
}

// Flat returns the contiguous region behind the initial capacity given to
// New: nodes[i] and gens[i] are the memory At(i) and Gen(i) reach through
// the chunk directory, for every slot i < len(nodes). Slots created by
// later growth lie outside it. A user whose slots all lie inside, such as
// a manager that reserves its whole capacity once, can index the region
// directly and skip the directory.
func (a *Arena[T]) Flat() (nodes []T, gens []atomic.Uint32) { return a.flat, a.flatGens }

// At returns the node stored in slot. The returned pointer stays valid
// forever; it may alias a slot that has since been recycled (that is the
// point of the optimistic access design).
func (a *Arena[T]) At(slot uint32) *T {
	t := *a.table.Load()
	return &t[slot>>ChunkShift][slot&chunkMask]
}

// Gen returns the generation counter of slot. Schemes bump it on recycle;
// tests use it to detect use-after-free in schemes that forbid it (HP, EBR)
// and to validate that OA never commits work based on a stale slot.
func (a *Arena[T]) Gen(slot uint32) uint32 {
	g := *a.gens.Load()
	return g[slot>>ChunkShift][slot&chunkMask].Load()
}

// BumpGen increments the generation counter of slot, marking one recycle.
func (a *Arena[T]) BumpGen(slot uint32) {
	g := *a.gens.Load()
	g[slot>>ChunkShift][slot&chunkMask].Add(1)
}

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
	old := *a.table.Load()
	oldGens := *a.gens.Load()
	if len(old) >= chunks {
		return nil, nil
	}
	nodes := make([]T, (chunks-len(old))<<ChunkShift)
	gens := make([]atomic.Uint32, len(nodes))
	next := make([]*[ChunkSize]T, chunks)
	nextGens := make([]*genChunk, chunks)
	copy(next, old)
	copy(nextGens, oldGens)
	for i := len(old); i < chunks; i++ {
		off := (i - len(old)) << ChunkShift
		next[i] = (*[ChunkSize]T)(nodes[off:])
		nextGens[i] = (*genChunk)(gens[off:])
	}
	a.table.Store(&next)
	a.gens.Store(&nextGens)
	a.capa.Store(uint32(chunks) << ChunkShift)
	return nodes, gens
}
