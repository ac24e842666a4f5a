package guard

import (
	"repro/internal/arena"
	"repro/internal/obs"
	"repro/internal/pools"
	"repro/internal/trace"
)

// pool is the object-pool allocator NoRecl, EBR, HP and Anchors share. The
// paper converts every implementation to the same object pool (§5,
// "Methodology") so that measurements compare reclamation schemes rather
// than allocators.
//
// Slots are drawn from a global lock-free stack of blocks (the "lock-free
// stack, where each item in the stack is an array of 126 objects"),
// through the guard's own block, so a thread allocates ~LocalPool times
// with no synchronization. When the stack runs dry the pool reserves fresh
// arena capacity, which keeps NoRecl (which never frees) and schemes whose
// reclamation lags (EBR with a stalled thread) going without unbounded
// spinning.
type pool[N any] struct {
	nodes     *arena.Arena[N]
	ba        *pools.BlockArena
	free      pools.CountedStack
	reset     func(*N)
	localPool int32
	// onRecycle, when set, sees every slot free returns (OnRecycle).
	onRecycle func(slot uint32)
}

// init pre-charges the pool with capacity slots, in blocks of localPool
// (<= 126) slots, for threads guards.
func (p *pool[N]) init(capacity, localPool, threads int, reset func(*N)) {
	if localPool <= 0 || localPool > pools.BlockCap {
		localPool = pools.BlockCap
	}
	capacity = max(capacity, localPool)
	p.nodes = arena.New[N](capacity)
	p.ba = pools.NewBlockArena(capacity, localPool, threads)
	p.reset = reset
	p.localPool = int32(localPool)
	p.free.Init()
	p.free.PushRange(p.ba, p.nodes.Reserve(capacity), capacity, p.localPool)
}

// alloc returns a zeroed slot. A refill of the guard's block, from the
// stack or by arena growth, is traced as EvRefill.
func (g *Guard[N]) alloc() uint32 {
	g.stats.Inc(obs.Allocs)
	p := &g.m.pool
	for {
		if g.allocBlk != pools.NoBlock {
			b := p.ba.B(g.allocBlk)
			if !b.Empty() {
				slot := b.Pop()
				p.reset(p.nodes.At(slot))
				return slot
			}
			p.ba.Put(g.allocBlk)
			g.allocBlk = pools.NoBlock
		}
		if blk, st := p.free.Pop(p.ba); st == pools.StatusOK {
			g.allocBlk = blk
		} else {
			// Pool dry: grow the arena by one local pool's worth.
			base := p.nodes.Reserve(int(p.localPool))
			blk := p.ba.Get()
			for i := int32(0); i < p.localPool; i++ {
				p.ba.B(blk).Push(base + uint32(i))
			}
			g.allocBlk = blk
		}
		if trace.Enabled() {
			g.ring.Record(trace.EvRefill, 0)
		}
	}
}

// free returns a slot to the pool through the guard's free block, where
// it may be reallocated: the slot is recycled.
func (g *Guard[N]) free(slot uint32) {
	p := &g.m.pool
	if p.onRecycle != nil {
		p.onRecycle(slot)
	}
	if g.freeBlk == pools.NoBlock {
		g.freeBlk = p.ba.Get()
	}
	b := p.ba.B(g.freeBlk)
	b.Push(slot)
	if b.Full(p.localPool) {
		p.free.Push(p.ba, g.freeBlk)
		g.freeBlk = pools.NoBlock
	}
}

// flush pushes a partly filled free block to the stack.
func (g *Guard[N]) flush() {
	p := &g.m.pool
	if g.freeBlk != pools.NoBlock && !p.ba.B(g.freeBlk).Empty() {
		p.free.Push(p.ba, g.freeBlk)
		g.freeBlk = pools.NoBlock
	}
}
