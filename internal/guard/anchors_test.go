package guard

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/sizing"
	"repro/internal/smr"
	"repro/internal/trace"
)

func newAnchors(t *testing.T, c sizing.Config) *Manager[tnode] { return newMgr(t, smr.Anchors, c, 0) }

func TestVisitPublishesEveryK(t *testing.T) {
	m := newAnchors(t, sizing.Config{MaxThreads: 1, Capacity: 64, AnchorsK: 3, ScanThreshold: 1000})
	g := m.Guard(0)
	g.Begin()
	s := g.Alloc()
	// The source word never leads to s, so every anchor drop fails its
	// validation: the failed visits are exactly the publications.
	var src arena.Link
	published := 0
	for i := 0; i < 10; i++ {
		if !g.Visit(arena.MakePtr(s), &src) {
			published++
			if got := g.anchor.Load(); got != uint64(s)+1 {
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
	src.Store(arena.MakePtr(s).Mark())
	for i := 0; i < 3; i++ {
		if !g.Visit(arena.MakePtr(s), &src) {
			t.Fatalf("visit with a (marked) source leading to s failed")
		}
	}
	g.End()
	if g.anchor.Load() != 0 {
		t.Fatal("End must clear the anchor")
	}
}

func TestAnchorProtectsKSegment(t *testing.T) {
	m := newAnchors(t, sizing.Config{MaxThreads: 2, Capacity: 256, AnchorsK: 4, ScanThreshold: 1})
	rec := recycles(m)
	w, tr := m.Guard(0), m.Guard(1)
	// Build a chain a -> b -> c.
	a, b, c := w.Alloc(), w.Alloc(), w.Alloc()
	w.View.At(a).next.Store(arena.MakePtr(b))
	w.View.At(b).next.Store(arena.MakePtr(c))
	genB, genC := rec.Gen(b), rec.Gen(c)

	// Traverser anchors at a and stays inside its operation.
	tr.Begin()
	var src arena.Link
	src.Store(arena.MakePtr(a))
	tr.Visit(arena.MakePtr(a), &src)

	w.Begin()
	w.Retire(b) // triggers a scan each retire (threshold 1)
	w.Retire(c)
	w.End()
	for i := 0; i < 10; i++ { // more scans
		w.Begin()
		w.Retire(w.Alloc())
		w.End()
	}
	if rec.Gen(b) != genB || rec.Gen(c) != genC {
		t.Fatal("anchored segment was reclaimed")
	}
	tr.End()
	for i := 0; i < 10; i++ {
		w.Begin()
		w.Retire(w.Alloc())
		w.End()
	}
	if rec.Gen(b) == genB && rec.Gen(c) == genC {
		t.Fatal("segment never reclaimed after the anchor lifted")
	}
}

func TestEraGracePeriod(t *testing.T) {
	m := newAnchors(t, sizing.Config{MaxThreads: 2, Capacity: 128, AnchorsK: 1000, ScanThreshold: 1})
	rec := recycles(m)
	runner, w := m.Guard(0), m.Guard(1)
	runner.Begin() // long-running op, no anchor on the node
	s := w.Alloc()
	gen := rec.Gen(s)
	w.Begin()
	w.Retire(s)
	w.End()
	for i := 0; i < 5; i++ {
		w.Begin()
		w.Retire(w.Alloc())
		w.End()
	}
	if rec.Gen(s) != gen {
		t.Fatal("slot freed while a pre-retire operation was still running")
	}
	runner.End()
	for i := 0; i < 5; i++ {
		w.Begin()
		w.Retire(w.Alloc())
		w.End()
	}
	if rec.Gen(s) == gen {
		t.Fatal("slot never freed after the operation ended")
	}
}

func TestAnchorsStatsAndDefaults(t *testing.T) {
	m := newAnchors(t, sizing.Config{})
	if len(m.guards) != 1 || m.Guard(0).k != 1000 || m.scanThreshold != 256 {
		t.Fatal("defaults")
	}
	g := m.Guard(0)
	g.countRestart(trace.CauseAnchor)
	g.Begin()
	g.Retire(g.Alloc())
	g.End()
	st := m.Stats()
	if st.Allocs != 1 || st.Retires != 1 || st.Restarts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
