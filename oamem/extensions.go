package oamem

import (
	"repro/internal/kvmap"
	"repro/internal/queue"
	"repro/internal/skiplist"
)

// FIFO builds a Michael-Scott FIFO queue with session leasing. Under OA,
// Capacity bounds the element backlog (plus slack δ); producers must
// apply admission control if consumers can fall arbitrarily behind.
func FIFO(opts ...Option) (*Queue, error) {
	c, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	raw, err := queue.New(c.scheme, c.o.sizing())
	if err != nil {
		return nil, badOption("%v", err)
	}
	return newQueue(raw, c.o.threads()), nil
}

// Ordered builds a skip-list ordered set under the optimistic access
// scheme: leased ScanSessions support RangeScan, which visits keys in
// ascending order with weak (snapshot-free) consistency.
func Ordered(opts ...Option) (*OrderedSet, error) {
	c, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	if c.scheme != OA {
		return nil, badOption("ordered range scans are implemented under the OA scheme only; scheme %v", c.scheme)
	}
	sl := skiplist.NewOA(c.o.sizing().OA())
	return &OrderedSet{OASkipList: sl, raw: make([]skiplist.ScanSession, c.o.threads())}, nil
}

// Map is a lock-free uint64→uint64 hash map under the optimistic access
// scheme (the library extension beyond the paper's sets). Its sessions
// lease natively: Map.Acquire / MapSession.Release.
type Map = kvmap.Map

// MapSession is the leased per-goroutine handle of a Map.
type MapSession = kvmap.Session

// KV builds a hash map under the optimistic access scheme. Size the key
// space with WithExpected (default: half the capacity). This is the
// structure the network server in internal/server serves.
func KV(opts ...Option) (*Map, error) {
	c, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	if c.scheme != OA {
		return nil, badOption("the kv map is implemented under the OA scheme only; scheme %v", c.scheme)
	}
	return kvmap.New(c.o.sizing().OA(), c.expected), nil
}

// ShardedMap partitions a uint64→uint64 keyspace across power-of-two
// independent Map instances routed by key hash. Each shard is its own
// OA universe — arena, session registry, reclamation phases — so a
// reclamation stall in one shard never fences operations in another.
type ShardedMap = kvmap.Sharded

// ShardedKV builds a hash map partitioned across per-core shards (see
// WithServerShards). Threads is the per-shard session registry size —
// a server connection may lease a session on every shard it touches.
// Capacity and Expected are totals divided across the shards, so the
// node budget is constant as the shard count varies.
func ShardedKV(opts ...Option) (*ShardedMap, error) {
	c, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	if c.scheme != OA {
		return nil, badOption("the kv map is implemented under the OA scheme only; scheme %v", c.scheme)
	}
	return kvmap.NewSharded(c.o.sizing().OA(), c.expected, c.shards), nil
}
