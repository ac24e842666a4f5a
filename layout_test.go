package repro

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/hashtable"
	"repro/internal/kvmap"
	"repro/internal/list"
	"repro/internal/mpmc"
	"repro/internal/oakit"
	"repro/internal/obs"
	"repro/internal/pools"
	"repro/internal/queue"
	"repro/internal/sizing"
	"repro/internal/skiplist"
	"repro/internal/smr"
	"repro/oamem"
)

// Node sizes are part of the measured design, not an accident of field
// order. Every link word is an arena.Link of 4 bytes: a slot handle and
// its mark fit 32 bits, and the arena refuses slots past that. With 8-byte
// links the skip list's 20 levels made its node 176 bytes; with Links it
// is 96 (8 key, 4 height, 80 of links, 4 of padding), which shrinks
// skiplist-read's resident memory by about a quarter. The list and map
// nodes are instances of the kit's generic chain node, whose payload comes
// first: Go pads a struct that ends in a zero-size field, so with the
// (empty) list payload last the node grew from 16 to 24 bytes and a
// contains over 5,000 keys ran 6 % slower — fewer nodes per cache line.
// The chain and queue nodes keep their sizes with a 4-byte link, since
// their 8-byte payload or key words align them to 8. A node that grows
// past these sizes changes every structure number in EXPERIMENTS.md and
// the bench ledger.
func TestNodeLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"list.Node", unsafe.Sizeof(list.Node{}), 16},
		{"kvmap.Node", unsafe.Sizeof(kvmap.Node{}), 32},
		{"queue.Node", unsafe.Sizeof(queue.Node{}), 16},
		{"mpmc.Node", unsafe.Sizeof(mpmc.Node{}), 72},
		{"skiplist.Node", unsafe.Sizeof(skiplist.Node{}), 96},
		{"arena.Link", unsafe.Sizeof(arena.Link{}), 4},
		// Two cache lines, so neighbouring threads' counters never share one.
		{"obs.PerThread", unsafe.Sizeof(obs.PerThread{}), 128},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// A hash bucket is a root word beside the arena, not a node in it, so
// Capacity is the entries' node budget and nothing else: the arena of a
// kvmap or hash table built with Capacity C reserves exactly C slots,
// whether its bucket array is far smaller than C or far larger.
func TestCapacityCountsEntries(t *testing.T) {
	const capacity = 4096
	for _, expected := range []int{1, 1000, 100000} {
		t.Run(fmt.Sprint(expected), func(t *testing.T) {
			cfg := core.Config{MaxThreads: 2, Capacity: capacity}
			m := kvmap.New(cfg, expected)
			oa := hashtable.NewOA(cfg, expected)
			nr, err := hashtable.NewGuarded(smr.NoRecl, sizing.Config{MaxThreads: 2, Capacity: capacity}, expected)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name     string
				buckets  int
				reserved uint32
			}{
				{"kvmap", m.Buckets(), m.Manager().Arena().Limit()},
				{"hashtable/OA", oa.Buckets(), oa.Engine().Manager().Arena().Limit()},
				{"hashtable/NoRecl", nr.Buckets(), nr.Engine().Arena().Limit()},
			} {
				if c.reserved != capacity {
					t.Errorf("%s with %d buckets reserved %d slots, want Capacity %d", c.name, c.buckets, c.reserved, capacity)
				}
			}
		})
	}
}

// Building a structure allocates what its capacity asks for and little
// more: capacity nodes, the block pool's bound (pools.BlockBound) of
// 512-byte blocks, the bucket array, and 64 KiB for everything else.
// Checked at the capacity of bench/'s structure workloads, under OA and
// NoRecl. When the block arena rounded its 497 blocks up to one chunk of
// 16,384, the OA hash set allocated 9.65 MB here, 8.3 MB of it that
// chunk. The bound leaves no room for a per-slot array beside the nodes:
// the 4-byte generations the arenas kept until they became a test-only
// observation were 242 KB at this capacity, past the 64 KiB of slack.
func TestConstructionFootprint(t *testing.T) {
	const capacity = 10000 + 50000 + 4*126 + 64 // prefill, δ, the pools' float
	const expected = 10000
	blocks := uintptr(pools.BlockBound(capacity, pools.BlockCap, 1)) * unsafe.Sizeof(pools.Block{})
	for _, c := range []struct {
		name          string
		build         func(...oamem.Option) (*oamem.Structure, error)
		node, buckets uintptr
	}{
		{"HashSet", oamem.HashSet, unsafe.Sizeof(list.Node{}), uintptr(len(oakit.NewBuckets(expected))) * unsafe.Sizeof(arena.Link{})},
		{"SkipList", oamem.SkipList, unsafe.Sizeof(skiplist.Node{}), 0},
	} {
		for _, sc := range []oamem.Scheme{oamem.OA, oamem.NoRecl} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st, err := c.build(oamem.WithScheme(sc), oamem.WithThreads(1),
				oamem.WithCapacity(capacity), oamem.WithExpected(expected))
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(st)
			got := after.TotalAlloc - before.TotalAlloc
			bound := uint64(capacity*c.node + blocks + c.buckets + 64<<10)
			if got > bound {
				t.Errorf("%s/%v: building allocated %d bytes, want at most %d", c.name, sc, got, bound)
			}
			t.Logf("%s/%v: %d bytes of at most %d", c.name, sc, got, bound)
		}
	}
}
