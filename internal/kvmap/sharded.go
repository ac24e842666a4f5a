package kvmap

import (
	"math/bits"
	"runtime"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/smr"
)

// Sharded partitions a keyspace across N independent Maps, each with its
// own core.Manager — its own arena, block pools, reclamation phases and
// session registry. The paper's schemes scale because reclamation work is
// thread-local, and a single shared structure instance re-couples what
// the scheme decoupled — every phase swap freezes every connection's
// pools and every warning broadcast touches every thread context. With
// per-core shards, a reclamation phase in one shard leaves the other
// shards' operation streams untouched.
//
// Routing is a multiply-shift hash on the key's high bits, deliberately
// disjoint from the per-Map bucket hash (which consumes the mid bits), so
// shard choice and bucket choice stay uncorrelated.
type Sharded struct {
	maps  []*Map
	shift uint
}

// shardMultiplier is an odd 64-bit mixing constant (splitmix64's second
// round), distinct from the Fibonacci constant the bucket hash uses.
const shardMultiplier = 0xD6E8FEB86659FD93

// MaxShards bounds the shard count.
const MaxShards = 64

// NextPow2 returns the smallest power of two >= n (minimum 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// DefaultShards is the shard count used when n <= 0 is requested:
// NextPow2(min(maxThreads, GOMAXPROCS)), capped at MaxShards — one shard
// per thread that can actually run concurrently.
func DefaultShards(maxThreads int) int {
	n := runtime.GOMAXPROCS(0)
	if maxThreads > 0 && maxThreads < n {
		n = maxThreads
	}
	return min(NextPow2(n), MaxShards)
}

// NewSharded builds shards independent Maps. cfg.Capacity and expected
// are totals: each shard receives a 1/shards slice of both, so the
// aggregate node budget is constant across shard counts. cfg.MaxThreads
// is per shard: every shard carries a full session registry, because a
// connection whose keys spray across the keyspace leases one session per
// shard it touches. shards is rounded up to a power of two (capped at
// MaxShards); shards <= 0 picks DefaultShards(cfg.MaxThreads).
func NewSharded(cfg core.Config, expected, shards int) *Sharded {
	n := DefaultShards(cfg.MaxThreads)
	if shards > 0 {
		n = min(NextPow2(shards), MaxShards)
	}
	per := cfg
	per.Capacity = cfg.Capacity / n
	perExpected := expected / n
	if perExpected < 1 {
		perExpected = 1
	}
	s := &Sharded{maps: make([]*Map, n), shift: uint(64 - log2(n))}
	for i := range s.maps {
		s.maps[i] = New(per, perExpected)
	}
	return s
}

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

// NumShards returns the shard count (a power of two).
func (s *Sharded) NumShards() int { return len(s.maps) }

// ShardIndex routes a key to its home shard. One shard always routes to
// index 0 (a shift of 64 yields 0 in Go).
func (s *Sharded) ShardIndex(key uint64) int {
	return int((key * shardMultiplier) >> s.shift)
}

// Shard returns shard i.
func (s *Sharded) Shard(i int) *Map { return s.maps[i] }

// Close closes every shard's session registry: Acquire fails from then
// on; outstanding sessions stay valid until Released.
func (s *Sharded) Close() {
	for _, m := range s.maps {
		m.Close()
	}
}

// RegisterObs registers every shard's reclamation families with reg
// (core.RegisterShards: a shard label on the gauges and the pause
// histogram, per-thread counters summed over the shards).
func (s *Sharded) RegisterObs(reg *obs.Registry) {
	ms := make([]*core.Manager[Node], len(s.maps))
	for i, m := range s.maps {
		ms[i] = m.Manager()
	}
	core.RegisterShards(reg, ms)
}

// Stats returns per-shard reclamation counters, indexed by shard.
func (s *Sharded) Stats() []smr.Stats {
	out := make([]smr.Stats, len(s.maps))
	for i, m := range s.maps {
		out[i] = m.Stats()
	}
	return out
}

// SessionsCap sums the shards' session registry capacities.
func (s *Sharded) SessionsCap() int {
	n := 0
	for _, m := range s.maps {
		n += m.Manager().Lessor().Cap()
	}
	return n
}

// SessionsLeased sums the shards' currently leased sessions.
func (s *Sharded) SessionsLeased() int {
	n := 0
	for _, m := range s.maps {
		n += m.Manager().Lessor().Leased()
	}
	return n
}

// SessionGrants sums the shards' lease grants.
func (s *Sharded) SessionGrants() uint64 {
	var n uint64
	for _, m := range s.maps {
		n += m.Manager().Lessor().Grants()
	}
	return n
}
