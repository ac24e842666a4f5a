package guard

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sizing"
	"repro/internal/smr"
)

type tnode struct {
	key  atomic.Uint64
	next atomic.Uint64
}

func reset(n *tnode) { n.key.Store(0); n.next.Store(0) }

// newMgr builds a manager of tnodes under sc, with hps hazard pointers per
// thread under HP and the next word as the anchors successor.
func newMgr(t testing.TB, sc smr.Scheme, c sizing.Config, hps int) *Manager[tnode] {
	t.Helper()
	m, err := New(sc, c, Spec[tnode]{Name: "test", Reset: reset, HPs: hps, Next: func(n *tnode) *atomic.Uint64 { return &n.next }})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAllocZeroes(t *testing.T) {
	g := newMgr(t, smr.NoRecl, sizing.Config{Capacity: 16, LocalPool: 4}, 0).Guard(0)
	s := g.alloc()
	g.View.At(s).key.Store(99)
	g.free(s)
	g.flush()
	for i := 0; i < 64; i++ {
		x := g.alloc()
		if g.View.At(x).key.Load() != 0 {
			t.Fatal("allocation returned a dirty node")
		}
		g.free(x)
	}
}

func TestFreeBumpsGeneration(t *testing.T) {
	m := newMgr(t, smr.NoRecl, sizing.Config{Capacity: 16, LocalPool: 4}, 0)
	g := m.Guard(0)
	s := g.alloc()
	gen := m.Arena().Gen(s)
	g.free(s)
	if m.Arena().Gen(s) != gen+1 {
		t.Fatalf("free did not bump generation: %d -> %d", gen, m.Arena().Gen(s))
	}
}

func TestGrowthWhenDry(t *testing.T) {
	m := newMgr(t, smr.NoRecl, sizing.Config{Capacity: 8, LocalPool: 4}, 0)
	g := m.Guard(0)
	seen := map[uint32]bool{}
	for i := 0; i < 100; i++ { // never free: must grow
		s := g.alloc()
		if seen[s] {
			t.Fatalf("slot %d handed out twice", s)
		}
		seen[s] = true
	}
	if m.Arena().Limit() < 100 {
		t.Fatalf("arena reserved %d slots for 100 allocations", m.Arena().Limit())
	}
}

func TestRecycleRoundTrip(t *testing.T) {
	g := newMgr(t, smr.NoRecl, sizing.Config{Capacity: 64, LocalPool: 8}, 0).Guard(0)
	first := make([]uint32, 0, 64)
	for i := 0; i < 64; i++ {
		first = append(first, g.alloc())
	}
	for _, s := range first {
		g.free(s)
	}
	g.flush()
	reused := 0
	inFirst := map[uint32]bool{}
	for _, s := range first {
		inFirst[s] = true
	}
	for i := 0; i < 64; i++ {
		if inFirst[g.alloc()] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no slots recycled")
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	const workers = 8
	m := newMgr(t, smr.NoRecl, sizing.Config{MaxThreads: workers, Capacity: 512, LocalPool: 16}, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := m.Guard(w)
			held := make([]uint32, 0, 32)
			for i := 0; i < 20000; i++ {
				if len(held) < 16 {
					s := g.alloc()
					n := g.View.At(s)
					if n.key.Load() != 0 {
						t.Errorf("dirty node %d", s)
						return
					}
					n.key.Store(uint64(w) + 1)
					held = append(held, s)
				} else {
					s := held[0]
					held = held[1:]
					if got := g.View.At(s).key.Load(); got != uint64(w)+1 {
						t.Errorf("slot %d stomped: key=%d, want %d", s, got, w+1)
						return
					}
					g.View.At(s).key.Store(0)
					g.free(s)
				}
			}
			g.flush()
		}(w)
	}
	wg.Wait()
}

// BenchmarkAllocatorSanity reproduces the paper's §5 sanity check that the
// object-pool allocator performs at least as well as the system allocator:
// node churn through the shared pool vs native Go allocation of equivalent
// nodes (which also drags the garbage collector into the loop).
func BenchmarkAllocatorSanity(b *testing.B) {
	b.Run("pool", func(b *testing.B) {
		g := newMgr(b, smr.NoRecl, sizing.Config{Capacity: 4096, LocalPool: 126}, 0).Guard(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := g.alloc()
			g.View.At(s).key.Store(uint64(i))
			g.free(s)
		}
	})
	b.Run("native", func(b *testing.B) {
		var sink *tnode
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := &tnode{}
			n.key.Store(uint64(i))
			sink = n
		}
		_ = sink
	})
}
