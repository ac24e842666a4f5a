// Sharded block pools. The global Treiber stacks (readyPool, retirePool,
// processingPool) are a single-cache-line CAS convoy once enough threads
// allocate and retire concurrently: every refill, flush and drain pass
// lands on the same 64-bit head word. Both follow-ups to the source paper
// (Cohen, "Every Data Structure Deserves Lock-Free Memory Reclamation";
// Moreno & Rocha, "Releasing Memory with Optimistic Access") decentralize
// the reclamation pipeline for exactly this reason.
//
// A sharded pool is N independent stacks (N a power of two), each padded
// to its own pair of cache lines. Thread t's pushes go to its home shard
// (t & mask), so in steady state — every thread retiring roughly what it
// allocates — pushes and pops are uncontended. Pops that find the home
// shard empty steal from the other shards in a pseudo-random full-cycle
// probe order, so imbalanced workloads still find every block.
//
// The versioned flavour keeps the odd/even freeze semantics of the paper's
// Algorithm 6 *per shard*: a phase freeze (driven by core.helpSwap) walks
// all retire shards and CASes each from (v, head) to (v+1, head); the pool
// counts as frozen once every shard is odd at the same version. Pushing to
// a shard whose version moved on returns StatusVerMismatch exactly as the
// flat VStack does, so the caller's recovery path is unchanged.
package pools

import (
	"math/bits"
	"sync/atomic"
)

// MaxShards bounds the shard count; beyond this the steal sweep costs more
// than the contention it avoids.
const MaxShards = 64

// NextPow2 returns the smallest power of two >= n (minimum 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// shardPad pads each shard struct (2 words of state) to 128 bytes — two
// cache lines, so adjacent shards never false-share even with the
// spatial prefetcher pulling line pairs.
const shardPad = 128 - 16

// nextRand advances an xorshift64 state and returns the new value. Callers
// keep the state thread-local (e.g. core.Thread), so steal probing costs
// no shared memory traffic.
func nextRand(state *uint64) uint64 {
	x := *state
	if x == 0 {
		x = 0x9E3779B97F4A7C15
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*state = x
	return x
}

type countedShard struct {
	s      CountedStack
	steals atomic.Uint64 // pops served to a thread whose home is elsewhere
	_      [shardPad]byte
}

// ShardedCountedStack is the sharded readyPool: N CountedStacks with
// home-shard pushes and steal-on-empty pops.
type ShardedCountedStack struct {
	shards []countedShard
	mask   uint32
}

// Init sizes the pool at NextPow2(n) shards (capped at MaxShards), all
// empty.
func (s *ShardedCountedStack) Init(n int) {
	n = NextPow2(n)
	if n > MaxShards {
		n = MaxShards
	}
	s.shards = make([]countedShard, n)
	s.mask = uint32(n - 1)
	for i := range s.shards {
		s.shards[i].s.Init()
	}
}

// NumShards returns the shard count (a power of two).
func (s *ShardedCountedStack) NumShards() int { return len(s.shards) }

// Steals returns how many pops were served from shard i to threads homed
// elsewhere.
func (s *ShardedCountedStack) Steals(i int) uint64 { return s.shards[i].steals.Load() }

// TotalSteals sums the per-shard steal counters.
func (s *ShardedCountedStack) TotalSteals() uint64 {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].steals.Load()
	}
	return n
}

// Push adds block idx to home's shard.
func (s *ShardedCountedStack) Push(ba *BlockArena, idx, home uint32) {
	s.shards[home&s.mask].s.Push(ba, idx)
}

// Pop removes a block, preferring home's shard and then probing the rest
// in a pseudo-random full-cycle order seeded from *rng. It returns
// (NoBlock, StatusEmpty) only after a full sweep found every shard empty.
func (s *ShardedCountedStack) Pop(ba *BlockArena, home uint32, rng *uint64) (uint32, Status) {
	blk, _, st := s.PopFrom(ba, home, rng)
	return blk, st
}

// HomeShard returns the shard index thread context home pushes to and
// pops from first.
func (s *ShardedCountedStack) HomeShard(home uint32) int { return int(home & s.mask) }

// PopFrom is Pop plus the index of the shard that served the block (−1
// when every shard was empty), so callers can attribute home refills vs
// steals — e.g. to a trace recorder — without the pool knowing about
// either.
func (s *ShardedCountedStack) PopFrom(ba *BlockArena, home uint32, rng *uint64) (uint32, int, Status) {
	h := home & s.mask
	if blk, st := s.shards[h].s.Pop(ba); st == StatusOK {
		return blk, int(h), StatusOK
	}
	n := uint32(len(s.shards))
	if n == 1 {
		return NoBlock, -1, StatusEmpty
	}
	// Odd stride on a power-of-two ring visits every shard exactly once.
	r := nextRand(rng)
	start := uint32(r)
	step := uint32(r>>32) | 1
	for i := uint32(0); i < n; i++ {
		j := (start + i*step) & s.mask
		if j == h {
			continue
		}
		if blk, st := s.shards[j].s.Pop(ba); st == StatusOK {
			s.shards[j].steals.Add(1)
			return blk, int(j), StatusOK
		}
	}
	return NoBlock, -1, StatusEmpty
}

// Drain pops every block from every shard and calls visit for each. Only
// meaningful while no concurrent pushers run (tests, teardown accounting).
func (s *ShardedCountedStack) Drain(ba *BlockArena, visit func(uint32)) {
	for i := range s.shards {
		s.shards[i].s.Drain(ba, visit)
	}
}

type vShard struct {
	s      VStack
	steals atomic.Uint64
	_      [shardPad]byte
}

// ShardedVStack is a sharded phase-versioned pool (the retirePool and
// processingPool of Algorithm 6). Every shard carries its own
// {version:32, blockIdx:32} head with the flat VStack's semantics; the
// phase-swap protocol (owned by the core package) walks the shards,
// keeping them within one freeze step of each other.
type ShardedVStack struct {
	shards []vShard
	mask   uint32
}

// Init sizes the pool at NextPow2(n) shards (capped at MaxShards), all
// empty at version ver.
func (s *ShardedVStack) Init(n int, ver uint32) {
	n = NextPow2(n)
	if n > MaxShards {
		n = MaxShards
	}
	s.shards = make([]vShard, n)
	s.mask = uint32(n - 1)
	for i := range s.shards {
		s.shards[i].s.Init(ver)
	}
}

// NumShards returns the shard count (a power of two).
func (s *ShardedVStack) NumShards() int { return len(s.shards) }

// Steals returns how many pops were served from shard i to threads homed
// elsewhere.
func (s *ShardedVStack) Steals(i int) uint64 { return s.shards[i].steals.Load() }

// TotalSteals sums the per-shard steal counters.
func (s *ShardedVStack) TotalSteals() uint64 {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].steals.Load()
	}
	return n
}

// LoadShard returns shard i's version and head block index.
func (s *ShardedVStack) LoadShard(i int) (ver, idx uint32) { return s.shards[i].s.Load() }

// CASShard atomically replaces shard i's {oldVer,oldIdx} with
// {newVer,newIdx} — the wide-CAS primitive the per-shard freeze is built
// from.
func (s *ShardedVStack) CASShard(i int, oldVer, oldIdx, newVer, newIdx uint32) bool {
	return s.shards[i].s.CompareAndSwap(oldVer, oldIdx, newVer, newIdx)
}

// Scan reads every shard once and returns the minimum version observed
// plus whether the pool is stable: all shards at that same even version.
// While a swap of phase v is in flight shards sit in {v, v+1, v+2}, so an
// unstable scan's evenFloor(min) names the phase being swapped.
func (s *ShardedVStack) Scan() (minVer uint32, stable bool) {
	minVer, _ = s.shards[0].s.Load()
	stable = true
	for i := 1; i < len(s.shards); i++ {
		v, _ := s.shards[i].s.Load()
		if v != minVer {
			stable = false
			if v < minVer {
				minVer = v
			}
		}
	}
	if minVer&1 == 1 {
		stable = false
	}
	return minVer, stable
}

// EmptyAt reports whether every shard is empty at exactly version ver —
// the phase-freeze precondition (the processing pool must be drained at
// the current version before a new swap may start).
func (s *ShardedVStack) EmptyAt(ver uint32) bool {
	for i := range s.shards {
		v, idx := s.shards[i].s.Load()
		if v != ver || idx != NoBlock {
			return false
		}
	}
	return true
}

// Push adds block idx to home's shard, succeeding only while that shard's
// version equals ver.
func (s *ShardedVStack) Push(ba *BlockArena, idx, ver, home uint32) Status {
	return s.shards[home&s.mask].s.Push(ba, idx, ver)
}

// Pop removes a block at version ver, preferring home's shard then
// stealing pseudo-randomly. After a full sweep with no block it reports
// StatusVerMismatch if any shard's version differed (the phase moved on —
// a shard at a newer version was empty at ver when it froze, so nothing at
// ver is missed) and StatusEmpty otherwise.
func (s *ShardedVStack) Pop(ba *BlockArena, ver, home uint32, rng *uint64) (uint32, Status) {
	blk, _, st := s.PopFrom(ba, ver, home, rng)
	return blk, st
}

// HomeShard returns the shard index thread context home pushes to and
// pops from first.
func (s *ShardedVStack) HomeShard(home uint32) int { return int(home & s.mask) }

// PopFrom is Pop plus the index of the shard that served the block (−1
// when no shard yielded one) — see ShardedCountedStack.PopFrom.
func (s *ShardedVStack) PopFrom(ba *BlockArena, ver, home uint32, rng *uint64) (uint32, int, Status) {
	h := home & s.mask
	mismatch := false
	switch blk, st := s.shards[h].s.Pop(ba, ver); st {
	case StatusOK:
		return blk, int(h), StatusOK
	case StatusVerMismatch:
		mismatch = true
	}
	n := uint32(len(s.shards))
	if n > 1 {
		r := nextRand(rng)
		start := uint32(r)
		step := uint32(r>>32) | 1
		for i := uint32(0); i < n; i++ {
			j := (start + i*step) & s.mask
			if j == h {
				continue
			}
			switch blk, st := s.shards[j].s.Pop(ba, ver); st {
			case StatusOK:
				s.shards[j].steals.Add(1)
				return blk, int(j), StatusOK
			case StatusVerMismatch:
				mismatch = true
			}
		}
	}
	if mismatch {
		return NoBlock, -1, StatusVerMismatch
	}
	return NoBlock, -1, StatusEmpty
}

// ChainStats walks every shard's chain and returns total blocks and slots.
// Only safe while the pool is frozen or privately owned (tests, Quiesce).
func (s *ShardedVStack) ChainStats(ba *BlockArena) (blocks, slots int) {
	for i := range s.shards {
		_, idx := s.shards[i].s.Load()
		b, sl := ChainLen(ba, idx)
		blocks += b
		slots += sl
	}
	return
}

// AnyBlocks reports whether any shard holds a block. Like ChainStats it is
// a quiescent-state accessor.
func (s *ShardedVStack) AnyBlocks() bool {
	for i := range s.shards {
		if _, idx := s.shards[i].s.Load(); idx != NoBlock {
			return true
		}
	}
	return false
}
