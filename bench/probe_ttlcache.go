package main

import (
	"time"

	"repro/oamem"
)

// Cache settings shared with serve-resp-cache (oaserver -ttl, -max-entries).
const (
	cacheTTL        = 2 * time.Second
	cacheMaxEntries = 32768
	cacheUniverse   = 262144
)

// probeTTLCache times the cache layer (internal/ttlcache through
// oamem.Cache) on one shard's share of the server's settings: a hit, a
// miss, a write in place, and a write of a new key past the LRU
// watermark, which has to evict. The sweeper is off so that it cannot
// land in a batch; the probe is over long before the TTL.
func (r *run) probeTTLCache(p *probeCtx) error {
	const watermark = cacheMaxEntries / 2
	const resident = watermark / 2
	c, err := oamem.Cache(oamem.WithThreads(1), oamem.WithCapacity(serveCapacity/2),
		oamem.WithTTL(cacheTTL), oamem.WithEvictionPolicy(oamem.EvictLRU(watermark)),
		oamem.WithSweepInterval(-1))
	if err != nil {
		return err
	}
	defer c.Close()
	s, err := c.Acquire()
	if err != nil {
		return err
	}
	defer s.Release()
	// Keys [0, resident) are read and rewritten; [filler, …) fill the
	// cache to its watermark and are never read; [missing, …) are never
	// written; fresh keys count up from [evicting, …).
	const filler, missing, evicting = 1 << 28, 1 << 29, 1 << 30
	key := func(k int) uint64 { return mix64(uint64(k)) }
	for k := 0; k < watermark; k++ {
		id := k
		if k >= resident {
			id = filler + k
		}
		if err := s.Set(key(id), uint64(k)+2); err != nil {
			return err
		}
	}
	keys := p.draw(calls(probeRounds, 4))
	var setErr error
	set := func(k int, v uint64) {
		if err := s.Set(key(k), v); err != nil {
			setErr = err
		}
	}
	get := func(k int) {
		v, _ := s.Get(key(k))
		probeSink += v
	}
	r.timeOps(p, probeRounds,
		timedOp{"ttlcache.get_hit_ns", func(i int) { get(keys[i] % resident) }},
		timedOp{"ttlcache.get_miss_ns", func(i int) { get(missing + keys[i]) }},
		timedOp{"ttlcache.set_ns", func(i int) { set(keys[i]%resident, uint64(i)+2) }},
		timedOp{"ttlcache.set_evict_ns", func(i int) { set(evicting+i, 2) }},
	)
	return setErr
}
