package anchors

import (
	"sync/atomic"
	"testing"

	"repro/internal/arena"
)

type tnode struct {
	key  atomic.Uint64
	next atomic.Uint64
}

func reset(n *tnode) { n.key.Store(0); n.next.Store(0) }

func newMgr(cfg Config) *Manager[tnode] {
	var m *Manager[tnode]
	succ := func(slot uint32) arena.Ptr {
		return arena.Ptr(m.Arena().At(slot).next.Load())
	}
	m = NewManager[tnode](cfg, reset, succ)
	return m
}

func TestVisitPublishesEveryK(t *testing.T) {
	m := newMgr(Config{MaxThreads: 1, Capacity: 64, K: 3, ScanThreshold: 1000})
	th := m.Thread(0)
	th.OnOpStart()
	s := th.Alloc()
	// The source word never leads to s, so every anchor drop fails its
	// validation: the failed visits are exactly the publications.
	var src atomic.Uint64
	published := 0
	for i := 0; i < 10; i++ {
		if !th.Visit(arena.MakePtr(s), &src) {
			published++
			if got := th.anchor.Load(); got != uint64(s)+1 {
				t.Fatalf("visit %d: anchor = %d, want slot %d + 1", i+1, got, s)
			}
		}
	}
	// Budget forces one publication on the first visit, then every K.
	if published != 4 { // visits 1, 4, 7, 10
		t.Fatalf("published %d anchors in 10 visits with K=3", published)
	}
	if st := m.Stats(); st.Restarts != 4 {
		t.Fatalf("restarts = %d, want one per failed anchor validation", st.Restarts)
	}
	src.Store(uint64(arena.MakePtr(s).Mark()))
	for i := 0; i < 3; i++ {
		if !th.Visit(arena.MakePtr(s), &src) {
			t.Fatalf("visit with a (marked) source leading to s failed")
		}
	}
	th.OnOpEnd()
	if th.anchor.Load() != 0 {
		t.Fatal("OnOpEnd must clear the anchor")
	}
}

func TestAnchorProtectsKSegment(t *testing.T) {
	m := newMgr(Config{MaxThreads: 2, Capacity: 256, K: 4, ScanThreshold: 1})
	w, tr := m.Thread(0), m.Thread(1)
	// Build a chain a -> b -> c.
	a, b, c := w.Alloc(), w.Alloc(), w.Alloc()
	w.Node(a).next.Store(uint64(arena.MakePtr(b)))
	w.Node(b).next.Store(uint64(arena.MakePtr(c)))
	genB, genC := m.Arena().Gen(b), m.Arena().Gen(c)

	// Traverser anchors at a and stays inside its operation.
	tr.OnOpStart()
	var src atomic.Uint64
	src.Store(uint64(arena.MakePtr(a)))
	tr.Visit(arena.MakePtr(a), &src)

	w.OnOpStart()
	w.Retire(b) // triggers a scan each retire (threshold 1)
	w.Retire(c)
	w.OnOpEnd()
	for i := 0; i < 10; i++ { // more scans
		w.OnOpStart()
		x := w.Alloc()
		w.Retire(x)
		w.OnOpEnd()
	}
	if m.Arena().Gen(b) != genB || m.Arena().Gen(c) != genC {
		t.Fatal("anchored segment was reclaimed")
	}
	tr.OnOpEnd()
	for i := 0; i < 10; i++ {
		w.OnOpStart()
		x := w.Alloc()
		w.Retire(x)
		w.OnOpEnd()
	}
	if m.Arena().Gen(b) == genB && m.Arena().Gen(c) == genC {
		t.Fatal("segment never reclaimed after the anchor lifted")
	}
}

func TestEraGracePeriod(t *testing.T) {
	m := newMgr(Config{MaxThreads: 2, Capacity: 128, K: 1000, ScanThreshold: 1})
	runner, w := m.Thread(0), m.Thread(1)
	runner.OnOpStart() // long-running op, no anchor on the node
	s := w.Alloc()
	gen := m.Arena().Gen(s)
	w.OnOpStart()
	w.Retire(s)
	w.OnOpEnd()
	for i := 0; i < 5; i++ {
		w.OnOpStart()
		w.Retire(w.Alloc())
		w.OnOpEnd()
	}
	if m.Arena().Gen(s) != gen {
		t.Fatal("slot freed while a pre-retire operation was still running")
	}
	runner.OnOpEnd()
	for i := 0; i < 5; i++ {
		w.OnOpStart()
		w.Retire(w.Alloc())
		w.OnOpEnd()
	}
	if m.Arena().Gen(s) == gen {
		t.Fatal("slot never freed after the operation ended")
	}
}

func TestStatsAndDefaults(t *testing.T) {
	m := newMgr(Config{})
	if m.MaxThreads() != 1 {
		t.Fatal("defaults")
	}
	th := m.Thread(0)
	th.CountRestart()
	th.OnOpStart()
	s := th.Alloc()
	th.Retire(s)
	th.OnOpEnd()
	st := m.Stats()
	if st.Allocs != 1 || st.Retires != 1 || st.Restarts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if th.ID() != 0 {
		t.Fatal("ID")
	}
}
