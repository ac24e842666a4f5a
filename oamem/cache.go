package oamem

import (
	"time"

	"repro/internal/kvmap"
	"repro/internal/ttlcache"
)

// TTLCache is a lock-free TTL/LRU cache layered over the OA hash map:
// per-entry expiry deadlines resolved lazily on read and by a background
// sweeper, plus sampled least-recently-used eviction under memory
// pressure — a full cache evicts instead of failing Set. Construct one
// with Cache; lease CacheSessions with Acquire.
type TTLCache = ttlcache.Cache

// CacheSession is the leased per-goroutine handle of a TTLCache: Get,
// Set, SetTTL, Expire, TTL, Remove. It is a value (leasing a session
// allocates nothing beyond the underlying map session's lease).
type CacheSession = ttlcache.Session

// CacheStats snapshots a TTLCache's counters (live entries, expiries,
// evictions, pressure reliefs, sweeps).
type CacheStats = ttlcache.Stats

// NoExpiry passed as a TTL to SetTTL or Expire gives the entry no
// deadline, overriding the cache's default TTL for that key.
const NoExpiry = ttlcache.NoExpiry

// Cache builds a TTL/LRU cache over a fresh OA hash map. Size it like
// KV (WithThreads, WithCapacity, WithExpected), then shape the cache
// behavior with WithTTL (default time-to-live), WithEvictionPolicy
// (EvictLRU watermark) and WithSweepInterval (background expiry; one
// second by default, negative disables):
//
//	c, err := oamem.Cache(
//		oamem.WithThreads(8),
//		oamem.WithCapacity(1<<20),
//		oamem.WithTTL(time.Minute),
//		oamem.WithEvictionPolicy(oamem.EvictLRU(500_000)),
//	)
//
// Even without an eviction watermark, a cache that hits its node budget
// sheds expired and then least-recently-used entries before giving up;
// Set returns an error wrapping ErrCapacityExhausted only when relief
// frees nothing (the live working set truly exceeds the budget).
func Cache(opts ...Option) (*TTLCache, error) {
	c, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	if c.scheme != OA {
		return nil, badOption("the ttl cache is implemented under the OA scheme only; scheme %v", c.scheme)
	}
	m := kvmap.New(c.o.sizing().OA(), c.expected)
	sweep := c.sweep
	if sweep == 0 {
		sweep = time.Second
	} else if sweep < 0 {
		sweep = 0
	}
	return ttlcache.Over(m, ttlcache.Options{
		DefaultTTL:    c.ttl,
		MaxLive:       c.maxEntries,
		SweepInterval: sweep,
	}), nil
}
