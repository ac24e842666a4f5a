package repro

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/hashtable"
	"repro/internal/kvmap"
	"repro/internal/list"
	"repro/internal/mpmc"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/sizing"
	"repro/internal/smr"
)

// Node sizes are part of the measured design, not an accident of field
// order. The list and map nodes are instances of the kit's generic chain
// node, whose payload comes first: Go pads a struct that ends in a
// zero-size field, so with the (empty) list payload last the node grew
// from 16 to 24 bytes and a contains over 5,000 keys ran 6 % slower —
// fewer nodes per cache line. A node that grows past these sizes changes
// every structure number in EXPERIMENTS.md and the bench ledger.
func TestNodeLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"list.Node", unsafe.Sizeof(list.Node{}), 16},
		{"kvmap.Node", unsafe.Sizeof(kvmap.Node{}), 32},
		{"queue.Node", unsafe.Sizeof(queue.Node{}), 16},
		{"mpmc.Node", unsafe.Sizeof(mpmc.Node{}), 72},
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
