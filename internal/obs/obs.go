// Package obs is the observability layer of the repository: lock-free,
// cache-padded per-thread counter blocks, log₂ duration histograms,
// callback gauges sampled from the scheme/arena/pool layers, and a
// registry that exports everything as Prometheus text (optionally over
// HTTP with the protocol trace and pprof attached).
//
// Design constraints, in order:
//
//  1. Instrumented hot paths must stay allocation-free and lock-free: every
//     counter is an atomic word inside a block owned by a single writer
//     thread, padded so two threads never share a cache line.
//  2. Counters that fire on every hazard-pointer publish or operation are
//     gated behind one global Enabled flag — a single predictable branch
//     when observability is off (zeroalloc_test.go keeps this honest).
//     Nothing counts an optimistic read: the read barrier counts only
//     the restarts its warnings cause, so it stays a load and a branch
//     that inlines. Cold counters (allocs, retires, restarts, recycle passes)
//     are always on, which is what makes live Stats() aggregation
//     race-free.
//  3. Aggregation never stops writers: readers sum the per-thread atomics
//     on demand. Each individual counter is exact; a cross-counter
//     snapshot may be torn by in-flight operations, so gauges derived from
//     counter pairs (e.g. retired-but-unreclaimed backlog) are approximate
//     under concurrency. See DESIGN.md "Observability".
package obs

import "sync/atomic"

// Counter indexes one of the per-thread counters in a PerThread block.
type Counter int

// The per-thread counter set. Hot counters (Ops, HPPublishes) are only
// maintained while Enabled; the rest are always on.
const (
	// Ops counts completed data-structure operations (fed by the driver
	// that owns the thread: oastress's soak loops).
	Ops Counter = iota
	// Allocs counts successful slot allocations.
	Allocs
	// Retires counts retire calls issued by the data structure.
	Retires
	// Recycled counts slots made available for reallocation.
	Recycled
	// ReRetired counts slots deferred to a later phase/scan because a
	// hazard pointer (or anchor) protected them.
	ReRetired
	// Restarts counts operation restarts forced by the scheme (for OA,
	// one per warning a check acts on).
	Restarts
	// DrainPasses counts Recycling calls that proceeded to drain the
	// processing pool (Algorithm 6 reaching its scan+drain half).
	DrainPasses
	// HPPublishes counts hazard-pointer word stores (Algorithms 2 and 3,
	// publishing and clearing alike): each is one sequentially consistent
	// store. OA packs two hazard pointers per word and skips a store that
	// would not change the word, so this is what the barriers cost.
	HPPublishes

	// NumCounters is the size of a PerThread counter block.
	NumCounters
)

var counterNames = [NumCounters]string{
	"ops", "allocs", "retires", "recycled", "re_retired",
	"restarts", "drain_passes", "hp_publishes",
}

// String returns the snake_case export name of the counter.
func (c Counter) String() string { return counterNames[c] }

// enabled gates the hot-path counters. It is read with a single atomic
// load (a plain MOV on x86) per instrumentation site; flip it only while
// the workers that feed the counters are quiescent.
var enabled atomic.Bool

// Enabled reports whether hot-path counters are being maintained.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns hot-path counters on or off. Call it before starting
// worker goroutines; toggling mid-run only affects which increments are
// counted, never safety.
func SetEnabled(v bool) { enabled.Store(v) }

// PerThread is one thread's cache-padded counter block. All fields are
// atomics so any goroutine may read them while the owner increments;
// increments are uncontended (single writer) so the atomic adds stay in
// the owner's cache line.
type PerThread struct {
	c [NumCounters]atomic.Uint64
	// pad the block to 128 bytes (2 cache lines) whatever the counter count
	_ [128 - 8*NumCounters]byte
}

// Inc adds 1 to counter i.
func (p *PerThread) Inc(i Counter) { p.c[i].Add(1) }

// Add adds n to counter i.
func (p *PerThread) Add(i Counter, n uint64) { p.c[i].Add(n) }

// Load returns counter i.
func (p *PerThread) Load(i Counter) uint64 { return p.c[i].Load() }

// Store sets counter i to v. Drivers that already keep a local operation
// count use it to publish the running total every few hundred operations
// instead of paying an atomic add per operation.
func (p *PerThread) Store(i Counter, v uint64) { p.c[i].Store(v) }

// ThreadStats is a fixed array of per-thread counter blocks, allocated
// contiguously so blocks are padded against each other.
type ThreadStats struct {
	blocks []PerThread
}

// NewThreadStats allocates blocks for n threads.
func NewThreadStats(n int) *ThreadStats {
	if n < 1 {
		n = 1
	}
	return &ThreadStats{blocks: make([]PerThread, n)}
}

// Threads returns the number of per-thread blocks.
func (ts *ThreadStats) Threads() int { return len(ts.blocks) }

// At returns thread i's block.
func (ts *ThreadStats) At(i int) *PerThread { return &ts.blocks[i] }

// Totals sums every counter across threads without stopping writers.
func (ts *ThreadStats) Totals() [NumCounters]uint64 {
	var out [NumCounters]uint64
	for i := range ts.blocks {
		for c := Counter(0); c < NumCounters; c++ {
			out[c] += ts.blocks[i].c[c].Load()
		}
	}
	return out
}

// Total sums one counter across threads.
func (ts *ThreadStats) Total(c Counter) uint64 {
	var n uint64
	for i := range ts.blocks {
		n += ts.blocks[i].c[c].Load()
	}
	return n
}

// Registrar is implemented by components (scheme managers, structure
// wrappers) that can register their own metric sources with a Registry.
type Registrar interface {
	RegisterObs(r *Registry)
}
