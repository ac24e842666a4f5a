// Package oamem is the public API of this repository: lock-free ordered
// sets (linked list, hash set, skip list) with pluggable safe-memory-
// reclamation, centered on the optimistic access scheme of Cohen & Petrank
// ("Efficient Memory Management for Lock-Free Data Structures with
// Optimistic Access", SPAA 2015).
//
// # Quick start
//
//	set, err := oamem.HashSet(
//		oamem.WithThreads(8),        // max concurrently leased sessions
//		oamem.WithCapacity(1<<20),   // node budget: live set + slack δ
//	)
//	if err != nil { ... }
//
//	// In each worker goroutine:
//	s, err := set.Acquire() // lease a session slot
//	if err != nil { ... }   // ErrNoFreeSessions when all 8 are leased
//	defer s.Release()
//	s.Insert(42)
//	s.Contains(42)
//	s.Delete(42)
//
// A Session is not goroutine-safe; each goroutine leases its own with
// Acquire and returns it with Release. The registry holds WithThreads
// slots — when all are leased, Acquire fails fast with ErrNoFreeSessions
// and the caller backs off or sheds load; slots recycle the moment a
// holder releases, so any number of goroutines can multiplex onto the
// fixed registry over time. (The underlying algorithms are specified
// against a fixed thread registry; leasing is the standard bridge from
// dynamic concurrency onto it.) All structures are linearizable sets of
// uint64 keys and are lock-free under every scheme except EBR (whose
// reclamation — not its operations — can be stalled by a preempted
// thread).
//
// Beyond the paper's sets, the package provides FIFO (Michael-Scott
// queue), KV and ShardedKV (uint64→uint64 hash maps under OA, the
// types the network server in internal/server serves), Ordered (skip
// list with ordered RangeScan) and Cache (a TTL/LRU cache layered over
// the hash map) — see extensions.go and cache.go.
//
// Every failure is typed: constructors wrap ErrInvalidOptions, Acquire
// returns ErrNoFreeSessions or ErrClosed, and a full Cache reports
// ErrCapacityExhausted — see errors.go for the complete sentinel set.
//
// # Choosing a scheme
//
//   - OA: the paper's contribution. Near-zero read overhead (one local
//     check per read), hazard pointers only around writes, lock-free
//     reclamation. Requires a fixed memory Capacity (live set + slack δ).
//   - HP: Michael's hazard pointers. Strong bounds on unreclaimed memory,
//     but a fence per traversal hop (2x-5x slower traversals).
//   - EBR: epoch-based reclamation. Fast, but a single stalled thread
//     stops reclamation; memory use is unbounded under stalls.
//   - Anchors: amortized hazard pointers for linked lists (one fence per K
//     hops); see internal/guard/anchors.go for this implementation's
//     cost-model simplifications.
//   - NoRecl: no reclamation (baseline; leaks deleted nodes).
package oamem

import (
	"repro/internal/hashtable"
	"repro/internal/list"
	"repro/internal/sizing"
	"repro/internal/skiplist"
	"repro/internal/smr"
)

// Scheme selects the memory reclamation scheme.
type Scheme = smr.Scheme

// Re-exported scheme constants.
const (
	NoRecl  = smr.NoRecl
	OA      = smr.OA
	HP      = smr.HP
	EBR     = smr.EBR
	Anchors = smr.Anchors
)

// Set is the raw concurrent-set interface every scheme implements
// (fixed-slot sessions, no leasing). The public constructors wrap one
// in a *Structure, whose Acquire/Release lease those fixed slots
// safely; the alias names the interface for code embedding the raw
// sets (harnesses, recorders).
type Set = smr.Set

// Stats aggregates reclamation counters.
type Stats = smr.Stats

// options sizes a structure; the With* options set its fields (see each
// for its meaning and default).
type options struct {
	Threads       int
	Capacity      int
	LocalPool     int
	ScanThreshold int
	AnchorsK      int
}

func (o options) threads() int {
	if o.Threads <= 0 {
		return 1
	}
	return o.Threads
}

// sizing projects the options onto the one struct every structure's New
// takes (EBR scans every 10·ScanThreshold operations).
func (o options) sizing() sizing.Config {
	return sizing.Config{
		MaxThreads: o.threads(), Capacity: o.Capacity, LocalPool: o.LocalPool,
		ScanThreshold: o.ScanThreshold, OpsPerScan: 10 * o.ScanThreshold, AnchorsK: o.AnchorsK,
	}
}

// newSet leases the raw set a structure's New built, or reports why the
// scheme does not apply.
func newSet(c config, set smr.Set, err error) (*Structure, error) {
	if err != nil {
		return nil, badOption("%v", err)
	}
	return newStructure(set, c.o.threads()), nil
}

// List builds a sorted linked-list set (Harris-Michael) with session
// leasing. Best for small sets; operations are O(n). Scheme defaults to
// OA; override with WithScheme (Anchors is list-only, as in the paper).
func List(opts ...Option) (*Structure, error) {
	c, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	set, err := list.New(c.scheme, c.o.sizing())
	return newSet(c, set, err)
}

// HashSet builds a hash set (Michael's lock-free hash table, load factor
// 0.75) with session leasing. O(1) operations. Size it with WithExpected
// (default: half the capacity).
func HashSet(opts ...Option) (*Structure, error) {
	c, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	set, err := hashtable.New(c.scheme, c.o.sizing(), c.expected)
	return newSet(c, set, err)
}

// SkipList builds a skip-list set (Herlihy-Shavit) with session leasing.
// O(log n) operations over an ordered key space; for ordered range
// scans use Ordered.
func SkipList(opts ...Option) (*Structure, error) {
	c, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	set, err := skiplist.New(c.scheme, c.o.sizing())
	return newSet(c, set, err)
}
