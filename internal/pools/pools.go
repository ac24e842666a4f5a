// Package pools implements the lock-free object pools of the optimistic
// access paper (§5 "Methodology", §4 "The Recycling Mechanism").
//
// Slots travel between threads in blocks of up to 126 slot indices — the
// paper's "lock-free stack, where each item in the stack is an array of 126
// objects". Global pools are Treiber stacks of blocks whose head word packs
// a 32-bit version next to a 32-bit block index and is manipulated by a
// single 64-bit CAS (the paper's "wide CAS" on head+version).
//
// Two stack flavours share the representation:
//
//   - VStack: the phase-versioned stacks (retirePool, processingPool). Every
//     push/pop carries the caller's phase version; a mismatch returns
//     StatusVerMismatch, telling the thread a new reclamation phase started.
//   - CountedStack: the readyPool. Allocation does not depend on the phase
//     (paper §4), but the head still needs ABA protection because a block
//     emptied by one thread can be reused and re-pushed while another
//     thread's pop is in flight; the version field is used as a plain push
//     counter.
//
// Within one phase the versioned stacks are ABA-free by construction: the
// retirePool is push-only during a phase (retire and re-retire of protected
// slots), the processingPool is pop-only (it is filled wholesale by the
// phase swap), and the swap itself bumps the version. This argument is
// exercised by the stress tests in this package.
package pools

import (
	"sync/atomic"

	"repro/internal/arena"
)

// BlockCap is the number of slot indices a block carries. The paper uses
// 126-object arrays; Figure 2 sweeps the effective local-pool size, which
// maps to the Fill limit used by local pools, not this constant.
const BlockCap = 126

// NoBlock is the nil block index terminating stack chains.
const NoBlock uint32 = ^uint32(0)

// Status is the result of a versioned pool operation.
type Status int

const (
	// StatusOK means the operation applied.
	StatusOK Status = iota
	// StatusEmpty means a pop found the stack empty at the right version.
	StatusEmpty
	// StatusVerMismatch is the paper's VER-MISMATCH: the pool's version is
	// not the caller's, i.e. a new reclamation phase has started (or is in
	// the middle of the odd-version freeze).
	StatusVerMismatch
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusEmpty:
		return "EMPTY"
	case StatusVerMismatch:
		return "VER-MISMATCH"
	default:
		return "invalid"
	}
}

// Block is a batch of slot indices plus the intrusive next link used by the
// block stacks. N and Slots are owned by exactly one thread except while the
// block is inside a stack, so they are plain fields; ownership transfer
// happens through the stacks' atomics.
type Block struct {
	next  atomic.Uint32 // next block index in the chain, NoBlock at the tail
	N     int32         // number of valid entries in Slots
	Slots [BlockCap]uint32
}

// Full reports whether the block holds limit entries (limit <= BlockCap).
func (b *Block) Full(limit int32) bool { return b.N >= limit }

// Empty reports whether the block holds no entries.
func (b *Block) Empty() bool { return b.N == 0 }

// Push appends a slot index. The caller must own the block.
func (b *Block) Push(slot uint32) { b.Slots[b.N] = slot; b.N++ }

// Pop removes and returns the last slot index. The caller must own the
// block, which must be non-empty.
func (b *Block) Pop() uint32 { b.N--; return b.Slots[b.N] }

// BlockArena allocates and recycles Block structs. Blocks churn once per
// ~BlockCap data-structure operations, so a single counted Treiber freelist
// is plenty. The count half of the head word bumps on every push, defeating
// ABA (pops alone cannot reintroduce a block).
type BlockArena struct {
	a    *arena.Arena[Block]
	free atomic.Uint64 // packed {count:32, idx:32}
}

// NewBlockArena creates a block arena whose flat region holds
// BlockBound(capacity, localPool, maxThreads) blocks: the blocks a pool of
// capacity slots needs when maxThreads contexts move them localPool at a
// time. A pool that outruns the bound grows the arena by a chunk.
func NewBlockArena(capacity, localPool, maxThreads int) *BlockArena {
	ba := &BlockArena{a: arena.New[Block](BlockBound(capacity, localPool, maxThreads))}
	ba.free.Store(pack(0, NoBlock))
	return ba
}

// BlockBound is the number of blocks a pool of capacity slots, moved in
// blocks of localPool (1..BlockCap) slots by maxThreads contexts, takes
// out of its block arena at once: every slot in a full block, plus
// 8 partial blocks per context and 8 more (DESIGN.md §4, "Block bound").
func BlockBound(capacity, localPool, maxThreads int) int {
	return (capacity+localPool-1)/localPool + 8*maxThreads + 8
}

// Arena exposes the arena behind the blocks, so tests can hold the pool
// to its bound.
func (ba *BlockArena) Arena() *arena.Arena[Block] { return ba.a }

func pack(ver, idx uint32) uint64 { return uint64(ver)<<32 | uint64(idx) }

func unpack(w uint64) (ver, idx uint32) { return uint32(w >> 32), uint32(w) }

// B resolves a block index to its Block.
func (ba *BlockArena) B(idx uint32) *Block { return ba.a.At(idx) }

// Get returns an empty block, recycling from the freelist when possible.
func (ba *BlockArena) Get() uint32 {
	var bo Backoff
	for {
		w := ba.free.Load()
		c, idx := unpack(w)
		if idx == NoBlock {
			n := ba.a.Reserve(1)
			ba.a.At(n).N = 0
			return n
		}
		next := ba.a.At(idx).next.Load()
		if ba.free.CompareAndSwap(w, pack(c, next)) {
			b := ba.a.At(idx)
			b.N = 0
			return idx
		}
		bo.Pause()
	}
}

// Put returns an empty block to the freelist.
func (ba *BlockArena) Put(idx uint32) {
	b := ba.a.At(idx)
	var bo Backoff
	for {
		w := ba.free.Load()
		c, head := unpack(w)
		b.next.Store(head)
		if ba.free.CompareAndSwap(w, pack(c+1, idx)) {
			return
		}
		bo.Pause()
	}
}

// VStack is a phase-versioned Treiber stack of blocks (the retirePool and
// processingPool of Algorithm 6). The head packs {version:32, blockIdx:32}.
type VStack struct {
	head atomic.Uint64
}

// Init sets the stack empty at version ver.
func (s *VStack) Init(ver uint32) { s.head.Store(pack(ver, NoBlock)) }

// Load returns the current version and head block index.
func (s *VStack) Load() (ver, idx uint32) { return unpack(s.head.Load()) }

// Ver returns the current version.
func (s *VStack) Ver() uint32 { v, _ := s.Load(); return v }

// CompareAndSwap atomically replaces {oldVer,oldIdx} with {newVer,newIdx}.
// It is the wide-CAS primitive the phase swap is built from.
func (s *VStack) CompareAndSwap(oldVer, oldIdx, newVer, newIdx uint32) bool {
	return s.head.CompareAndSwap(pack(oldVer, oldIdx), pack(newVer, newIdx))
}

// Push adds block idx on top, succeeding only while the stack version
// equals ver.
func (s *VStack) Push(ba *BlockArena, idx, ver uint32) Status {
	b := ba.B(idx)
	var bo Backoff
	for {
		w := s.head.Load()
		v, top := unpack(w)
		if v != ver {
			return StatusVerMismatch
		}
		b.next.Store(top)
		if s.head.CompareAndSwap(w, pack(ver, idx)) {
			return StatusOK
		}
		bo.Pause()
	}
}

// Pop removes and returns the top block, succeeding only while the stack
// version equals ver.
func (s *VStack) Pop(ba *BlockArena, ver uint32) (uint32, Status) {
	var bo Backoff
	for {
		w := s.head.Load()
		v, top := unpack(w)
		if v != ver {
			return NoBlock, StatusVerMismatch
		}
		if top == NoBlock {
			return NoBlock, StatusEmpty
		}
		next := ba.B(top).next.Load()
		if s.head.CompareAndSwap(w, pack(ver, next)) {
			return top, StatusOK
		}
		bo.Pause()
	}
}

// CountedStack is the readyPool: a Treiber stack of blocks whose version
// half is a push counter rather than a phase (allocations do not depend on
// the phase, paper §4), giving ABA protection against block reuse.
type CountedStack struct {
	head atomic.Uint64
}

// Init sets the stack empty.
func (s *CountedStack) Init() { s.head.Store(pack(0, NoBlock)) }

// Push adds block idx on top.
func (s *CountedStack) Push(ba *BlockArena, idx uint32) {
	b := ba.B(idx)
	var bo Backoff
	for {
		w := s.head.Load()
		c, top := unpack(w)
		b.next.Store(top)
		if s.head.CompareAndSwap(w, pack(c+1, idx)) {
			return
		}
		bo.Pause()
	}
}

// Pop removes and returns the top block, or (NoBlock, StatusEmpty).
func (s *CountedStack) Pop(ba *BlockArena) (uint32, Status) {
	var bo Backoff
	for {
		w := s.head.Load()
		c, top := unpack(w)
		if top == NoBlock {
			return NoBlock, StatusEmpty
		}
		next := ba.B(top).next.Load()
		if s.head.CompareAndSwap(w, pack(c, next)) {
			return top, StatusOK
		}
		bo.Pause()
	}
}

// PushRange pre-charges the stack with slots [base, base+n): it chops
// them into blocks of limit slots and pushes each, the partial block last.
func (s *CountedStack) PushRange(ba *BlockArena, base uint32, n int, limit int32) {
	for n > 0 {
		blk := ba.Get()
		b := ba.B(blk)
		for ; n > 0 && !b.Full(limit); n-- {
			b.Push(base)
			base++
		}
		s.Push(ba, blk)
	}
}

// Drain pops every block currently in the stack and calls visit for each.
// Only meaningful while no concurrent pushers run (tests).
func (s *CountedStack) Drain(ba *BlockArena, visit func(uint32)) {
	for {
		b, st := s.Pop(ba)
		if st != StatusOK {
			return
		}
		visit(b)
	}
}

// ChainLen walks a block chain starting at idx and returns the number of
// blocks and total slots. Only safe on a frozen or privately owned chain.
func ChainLen(ba *BlockArena, idx uint32) (blocks, slots int) {
	for idx != NoBlock {
		b := ba.B(idx)
		blocks++
		slots += int(b.N)
		idx = b.next.Load()
	}
	return
}
