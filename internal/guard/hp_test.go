package guard

import (
	"sync"
	"testing"

	"repro/internal/arena"
	"repro/internal/sizing"
	"repro/internal/smr"
)

func TestProtectBlocksReclaim(t *testing.T) {
	m := newMgr(t, smr.HP, sizing.Config{MaxThreads: 2, Capacity: 64, ScanThreshold: 4}, 3)
	w, g := m.Guard(0), m.Guard(1)
	s := w.Alloc()
	gen := m.Arena().Gen(s)
	g.Protect(0, arena.MakePtr(s))
	w.Retire(s)
	for i := 0; i < 200; i++ { // force many scans
		w.Retire(w.Alloc())
	}
	if m.Arena().Gen(s) != gen {
		t.Fatal("protected slot was freed")
	}
	if len(w.retired) == 0 {
		t.Fatal("protected slot should remain in the retired list")
	}
	g.Protect(0, arena.NilPtr)
	for i := 0; i < 200; i++ {
		w.Retire(w.Alloc())
	}
	if m.Arena().Gen(s) == gen {
		t.Fatal("slot never freed after protection cleared")
	}
}

func TestProtectUnmarksPointers(t *testing.T) {
	m := newMgr(t, smr.HP, sizing.Config{MaxThreads: 2, Capacity: 64, ScanThreshold: 2}, 1)
	w, g := m.Guard(0), m.Guard(1)
	s := w.Alloc()
	gen := m.Arena().Gen(s)
	g.Protect(0, arena.MakePtr(s).Mark()) // marked handle must still protect
	w.Retire(s)
	for i := 0; i < 100; i++ {
		w.Retire(w.Alloc())
	}
	if m.Arena().Gen(s) != gen {
		t.Fatal("marked-handle protection failed")
	}
}

func TestProtectNilClears(t *testing.T) {
	g := newMgr(t, smr.HP, sizing.Config{MaxThreads: 1, Capacity: 32}, 2).Guard(0)
	s := g.Alloc()
	g.Protect(0, arena.MakePtr(s))
	g.Protect(0, arena.NilPtr)
	if g.hps[0].Load() != 0 {
		t.Fatal("Protect(nil) must clear the hazard pointer")
	}
	g.Protect(1, arena.MakePtr(s))
	g.Clear()
	if g.hps[1].Load() != 0 {
		t.Fatal("Clear left a hazard pointer")
	}
}

func TestScanThresholdTriggers(t *testing.T) {
	m := newMgr(t, smr.HP, sizing.Config{MaxThreads: 1, Capacity: 64, ScanThreshold: 10}, 1)
	g := m.Guard(0)
	for i := 0; i < 9; i++ {
		g.Retire(g.Alloc())
	}
	if got := m.Stats().Phases; got != 0 {
		t.Fatalf("scan ran early: %d", got)
	}
	g.Retire(g.Alloc())
	if got := m.Stats().Phases; got != 1 {
		t.Fatalf("scans = %d, want 1", got)
	}
	if m.Stats().Recycled != 10 {
		t.Fatalf("recycled = %d, want 10", m.Stats().Recycled)
	}
}

// The UAF guarantee: a slot is never reused while any hazard pointer
// (validated) covers it. Workers hold a protected slot, verify a sentinel
// across heavy concurrent churn, then release.
func TestNoUseAfterFreeUnderChurn(t *testing.T) {
	const threads = 6
	m := newMgr(t, smr.HP, sizing.Config{MaxThreads: threads, Capacity: 2048, ScanThreshold: 32}, 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Churners allocate/retire constantly.
	for id := 1; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := m.Guard(id)
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := g.Alloc()
				g.View.At(s).key.Store(uint64(id))
				g.Retire(s)
			}
		}(id)
	}
	// The observer publishes, validates via generation, and re-reads.
	g := m.Guard(0)
	for i := 0; i < 5000; i++ {
		s := g.Alloc()
		g.View.At(s).key.Store(0xDEAD)
		// Simulate handing the slot to a reader: protect, then retire from
		// another conceptual owner; the value must persist until cleared.
		g.Protect(0, arena.MakePtr(s))
		g.Retire(s)
		for j := 0; j < 10; j++ {
			if got := g.View.At(s).key.Load(); got != 0xDEAD {
				t.Errorf("iteration %d: protected slot mutated to %#x", i, got)
				close(stop)
				wg.Wait()
				return
			}
		}
		g.Protect(0, arena.NilPtr)
	}
	close(stop)
	wg.Wait()
}

func TestHPStatsAndDefaults(t *testing.T) {
	m := newMgr(t, smr.HP, sizing.Config{}, 3)
	if len(m.guards) != 1 {
		t.Fatalf("threads = %d", len(m.guards))
	}
	if m.scanThreshold != 2*1*3+64 {
		t.Fatalf("ScanThreshold = %d", m.scanThreshold)
	}
	g := m.Guard(0)
	g.Restart()
	g.Retire(g.Alloc())
	st := m.Stats()
	if st.Allocs != 1 || st.Retires != 1 || st.Restarts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
