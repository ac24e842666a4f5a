package harness

import (
	"fmt"

	"repro/internal/hashtable"
	"repro/internal/list"
	"repro/internal/sizing"
	"repro/internal/skiplist"
	"repro/internal/smr"
)

// Structure names the paper's four micro-benchmarks.
type Structure string

// The paper's benchmark structures (§5).
const (
	LinkedList5K  Structure = "LinkedList5K"  // 5,000-node list: long traversals
	LinkedList128 Structure = "LinkedList128" // 128-node list: high contention
	Hash          Structure = "Hash"          // 10,000 nodes, load factor 0.75
	SkipList      Structure = "SkipList"      // 10,000 nodes
)

// Structures lists them in the paper's presentation order.
var Structures = []Structure{LinkedList5K, LinkedList128, Hash, SkipList}

// InitialSize returns the paper's initialization for the structure.
func (s Structure) InitialSize() int {
	switch s {
	case LinkedList5K:
		return 5000
	case LinkedList128:
		return 128
	default:
		return 10000
	}
}

// Supports reports whether the paper evaluates the scheme on the structure
// (anchors exists only for the linked lists).
func (s Structure) Supports(sc smr.Scheme) bool {
	if sc == smr.Anchors {
		return s == LinkedList5K || s == LinkedList128
	}
	return true
}

// BuildConfig assembles one benchmark instance.
type BuildConfig struct {
	Structure Structure
	Scheme    smr.Scheme
	Threads   int
	// Delta is the paper's δ: the allocation headroom that sets phase
	// frequency for OA (capacity = size + δ) and the scan/epoch triggers
	// for the other schemes (HP: k = δ/threads; EBR: q = 10·δ/threads;
	// Figure 3 semantics). Zero means the paper's default of 50,000
	// (Figure 1's "reclamation once every 50,000 allocations").
	Delta int
	// LocalPool is the transfer-block size (126 default; Figure 2 sweeps
	// it).
	LocalPool int
	// AnchorsK is the anchors scheme's K (1000 default).
	AnchorsK int
	// WarningByStore enables the Appendix E ablation in the OA scheme.
	WarningByStore bool
	// Shards overrides the OA scheme's block-pool shard count (0 defaults
	// to min(threads, GOMAXPROCS) rounded up to a power of two). Only the
	// OA scheme has sharded pools; the other schemes ignore it.
	Shards int
}

func (c *BuildConfig) fill() {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Delta <= 0 {
		c.Delta = 50000
	}
	if c.LocalPool <= 0 {
		c.LocalPool = 126
	}
	if c.AnchorsK <= 0 {
		c.AnchorsK = 1000
	}
}

// perThread divides δ across threads, minimum 1.
func (c *BuildConfig) perThread() int {
	k := c.Delta / c.Threads
	if k < 1 {
		k = 1
	}
	return k
}

// Build constructs the structure under the scheme. The returned set is
// empty; use Run (or Prefill) to populate it.
func Build(c BuildConfig) (smr.Set, error) {
	c.fill()
	size := c.Structure.InitialSize()
	sz := sizing.Config{
		MaxThreads: c.Threads,
		// OA needs headroom beyond δ for per-thread local buffers and
		// pending nodes; the other schemes grow their arena on demand.
		Capacity:       size + c.Delta + 4*c.Threads*c.LocalPool + 64,
		LocalPool:      c.LocalPool,
		ScanThreshold:  c.perThread(),
		OpsPerScan:     10 * c.perThread(),
		AnchorsK:       c.AnchorsK,
		WarningByStore: c.WarningByStore,
		Shards:         c.Shards,
	}
	switch c.Structure {
	case LinkedList5K, LinkedList128:
		return list.New(c.Scheme, sz)
	case Hash:
		return hashtable.New(c.Scheme, sz, size)
	case SkipList:
		return skiplist.New(c.Scheme, sz)
	}
	return nil, fmt.Errorf("harness: unknown structure %q", c.Structure)
}

// WorkloadFor returns the paper's workload for the structure at the given
// thread count and read fraction.
func WorkloadFor(s Structure, threads int, readFraction float64) Workload {
	return Workload{
		Threads:      threads,
		InitialSize:  s.InitialSize(),
		KeyRange:     2 * uint64(s.InitialSize()),
		ReadFraction: readFraction,
	}
}
