package oamem

import (
	"fmt"
	"time"

	"repro/internal/oaerr"
)

// Option configures a constructor. Options are applied in order, so a
// later option overrides an earlier one.
type Option interface {
	applyOption(*config)
}

type optionFunc func(*config)

func (f optionFunc) applyOption(c *config) { f(c) }

// config is the resolved constructor configuration.
type config struct {
	o        options
	scheme   Scheme
	expected int
	shards   int

	// Cache-only knobs (see Cache).
	ttl        time.Duration
	maxEntries int
	sweep      time.Duration
}

// WithScheme selects the reclamation scheme (default OA, the paper's
// contribution).
func WithScheme(s Scheme) Option { return optionFunc(func(c *config) { c.scheme = s }) }

// WithThreads sets the session registry size: the maximum number of
// concurrently leased sessions (and the fixed thread-context count every
// scheme's algorithms are specified against). Default 1.
func WithThreads(n int) Option { return optionFunc(func(c *config) { c.o.Threads = n }) }

// WithCapacity sets the node budget. Under OA this is a hard limit: size
// it as the peak live set plus a reclamation slack δ (the paper uses
// δ ≈ 8,000–50,000; more δ means fewer reclamation phases). Other
// schemes grow past it on demand.
func WithCapacity(n int) Option { return optionFunc(func(c *config) { c.o.Capacity = n }) }

// WithLocalPool sets the per-thread transfer block size, 1..126
// (126 default, the paper's choice).
func WithLocalPool(n int) Option { return optionFunc(func(c *config) { c.o.LocalPool = n }) }

// WithScanThreshold tunes HP (retires per scan) and Anchors; EBR uses
// 10× this as its operations-per-scan. Zero picks scheme defaults.
func WithScanThreshold(n int) Option {
	return optionFunc(func(c *config) { c.o.ScanThreshold = n })
}

// WithAnchorsK sets the anchors scheme's fence amortization distance
// (1000 default, as in the paper).
func WithAnchorsK(k int) Option { return optionFunc(func(c *config) { c.o.AnchorsK = k }) }

// WithExpected sizes hash-based structures (HashSet, KV, Cache) for the
// given expected element count. Defaults to half the capacity (a hash
// table at the paper's 0.75 load factor comfortably holds that live set).
func WithExpected(n int) Option { return optionFunc(func(c *config) { c.expected = n }) }

// WithServerShards sets the shard count for ShardedKV: the keyspace is
// partitioned across that many independent map instances (rounded up to
// a power of two), each with its own node budget, session registry and
// reclamation phases. Zero (the default) picks one shard per core:
// NextPow2(min(Threads, GOMAXPROCS)). Capacity and Expected are totals,
// divided evenly across the shards.
func WithServerShards(n int) Option { return optionFunc(func(c *config) { c.shards = n }) }

// WithTTL sets a Cache's default time-to-live, applied by Set (and by
// SetTTL with ttl 0). Zero — the default — means entries do not expire
// unless SetTTL/Expire give them an explicit deadline.
func WithTTL(d time.Duration) Option { return optionFunc(func(c *config) { c.ttl = d }) }

// EvictionPolicy selects how a Cache sheds entries under memory
// pressure. Construct one with EvictLRU.
type EvictionPolicy struct {
	maxEntries int
}

// EvictLRU evicts the (approximately) least-recently-used entries,
// sampled per bucket, once the cache holds more than maxEntries live
// entries — and, regardless of the watermark, whenever an insert hits
// the node budget (eviction instead of ErrCapacityExhausted).
// maxEntries 0 leaves only the capacity-pressure eviction.
func EvictLRU(maxEntries int) EvictionPolicy {
	return EvictionPolicy{maxEntries: maxEntries}
}

// WithEvictionPolicy sets a Cache's eviction policy (see EvictLRU).
// Without it a full cache fails Set with ErrCapacityExhausted after
// expiry sweeping alone cannot free space.
func WithEvictionPolicy(p EvictionPolicy) Option {
	return optionFunc(func(c *config) { c.maxEntries = p.maxEntries })
}

// WithSweepInterval sets how often a Cache's background sweeper scans
// for expired entries. Zero (the default) picks one second; a negative
// value disables the sweeper, leaving expiry purely lazy (reads reap
// dead entries; Set relieves pressure on demand).
func WithSweepInterval(d time.Duration) Option {
	return optionFunc(func(c *config) { c.sweep = d })
}

// badOption builds a constructor error wrapping ErrInvalidOptions.
func badOption(format string, args ...any) error {
	return fmt.Errorf("oamem: "+format+": %w", append(args, oaerr.ErrInvalidOptions)...)
}

// resolve folds the options over the defaults and validates them.
func resolve(opts []Option) (config, error) {
	c := config{scheme: OA}
	for _, opt := range opts {
		if opt != nil {
			opt.applyOption(&c)
		}
	}
	if c.o.Threads < 0 {
		return c, badOption("negative Threads %d", c.o.Threads)
	}
	if c.o.Capacity < 0 {
		return c, badOption("negative Capacity %d", c.o.Capacity)
	}
	if c.expected < 0 {
		return c, badOption("negative Expected %d", c.expected)
	}
	if c.shards < 0 {
		return c, badOption("negative ServerShards %d", c.shards)
	}
	if c.ttl < 0 {
		return c, badOption("negative TTL %v", c.ttl)
	}
	if c.maxEntries < 0 {
		return c, badOption("negative EvictLRU maxEntries %d", c.maxEntries)
	}
	if c.expected == 0 {
		if c.o.Capacity > 0 {
			c.expected = c.o.Capacity / 2
		}
		if c.expected < 1024 {
			c.expected = 1024
		}
	}
	return c, nil
}
