package repro

import (
	"testing"
	"unsafe"

	"repro/internal/kvmap"
	"repro/internal/list"
	"repro/internal/mpmc"
	"repro/internal/obs"
	"repro/internal/queue"
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
