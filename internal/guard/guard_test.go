package guard

import (
	"sync/atomic"
	"testing"

	"repro/internal/arena"
	"repro/internal/sizing"
	"repro/internal/smr"
)

func TestRetireNeverRecycles(t *testing.T) {
	m := newMgr(t, smr.NoRecl, sizing.Config{MaxThreads: 1, Capacity: 16}, 0)
	g := m.Guard(0)
	seen := map[uint32]bool{}
	for i := 0; i < 1000; i++ {
		s := g.Alloc()
		if seen[s] {
			t.Fatalf("NoRecl reused slot %d", s)
		}
		seen[s] = true
		g.Retire(s)
		if m.Arena().Gen(s) != 0 {
			t.Fatal("NoRecl must never bump generations")
		}
	}
	st := m.Stats()
	if st.Allocs != 1000 || st.Retires != 1000 || st.Recycled != 0 || st.Unreclaimed() != 1000 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDefaults(t *testing.T) {
	m := newMgr(t, smr.NoRecl, sizing.Config{}, 0)
	if len(m.guards) != 1 {
		t.Fatal("defaults")
	}
	s := m.Guard(0).Alloc()
	if m.Guard(0).View.At(s).key.Load() != 0 {
		t.Fatal("dirty node")
	}
}

// TestHookTable drives every hook of one guard under each scheme and
// checks the effect DESIGN.md §9's hook table gives it.
func TestHookTable(t *testing.T) {
	for _, c := range []struct {
		sc                           smr.Scheme
		announces, publishes, anchor bool
	}{
		{smr.NoRecl, false, false, false},
		{smr.EBR, true, false, false},
		{smr.HP, false, true, false},
		{smr.Anchors, true, false, true},
	} {
		t.Run(c.sc.String(), func(t *testing.T) {
			m := newMgr(t, c.sc, sizing.Config{MaxThreads: 2, Capacity: 64, AnchorsK: 2, ScanThreshold: 1000, OpsPerScan: 1000}, 2)
			g := m.Guard(0)
			a, b := g.Alloc(), g.Alloc()
			pa, pb := arena.MakePtr(a), arena.MakePtr(b)
			var src atomic.Uint64
			src.Store(uint64(pa))
			// shared reads every word another thread's reclaimer reads:
			// the clock, and each guard's announce word, anchor and
			// hazard pointers.
			shared := func(step string) {
				t.Helper()
				w := []uint64{m.clock.Load()}
				for _, o := range m.guards {
					w = append(w, o.state.Load(), o.anchor.Load())
					for i := range o.hps {
						w = append(w, o.hps[i].Load())
					}
				}
				if c.sc != smr.NoRecl {
					return
				}
				for _, x := range w {
					if x != 0 {
						t.Fatalf("after %s: NoRecl wrote a shared word: %v", step, w)
					}
				}
			}
			hp := func(i int) uint64 {
				if i < len(g.hps) {
					return g.hps[i].Load()
				}
				return 0
			}
			if g.HP() != (c.sc == smr.HP) {
				t.Fatalf("HP() = %v", g.HP())
			}

			g.Begin()
			shared("Begin")
			if got := g.state.Load()&1 == 1; got != c.announces {
				t.Fatalf("Begin announced = %v, want %v", got, c.announces)
			}
			g.Protect(0, pa)
			shared("Protect")
			if got := hp(0) == uint64(a)+1; got != c.publishes {
				t.Fatalf("Protect published = %v, want %v", got, c.publishes)
			}
			if !g.Validate(1, pb, &src, pa) {
				t.Fatal("Validate against an unchanged source failed")
			}
			shared("Validate")
			if got := hp(1) == uint64(b)+1; got != c.publishes {
				t.Fatalf("Validate published = %v, want %v", got, c.publishes)
			}
			if got := g.Validate(1, pb, &src, pb); got != !c.publishes {
				t.Fatalf("Validate against a changed source = %v, want %v", got, !c.publishes)
			}
			g.Clear()
			shared("Clear")
			if hp(0) != 0 || hp(1) != 0 {
				t.Fatal("Clear left a hazard pointer")
			}

			// K = 2: Begin forces an anchor on the first visit, then
			// every second visit drops one.
			if !g.Visit(pa, &src) {
				t.Fatal("Visit through a source leading to the node failed")
			}
			shared("Visit")
			if got := g.anchor.Load() == uint64(a)+1; got != c.anchor {
				t.Fatalf("first Visit anchored = %v, want %v", got, c.anchor)
			}
			if !g.Visit(pb, &src) {
				t.Fatal("a visit between anchors failed")
			}
			if got := g.anchor.Load() == uint64(a)+1; got != c.anchor {
				t.Fatalf("second Visit moved the anchor")
			}
			if got := g.Visit(pb, &src); got != !c.anchor {
				t.Fatalf("third Visit through a stale source = %v, want %v", got, !c.anchor)
			}
			if got := g.anchor.Load() == uint64(b)+1; got != c.anchor {
				t.Fatalf("third Visit anchored = %v, want %v", got, c.anchor)
			}
			g.Restart()
			shared("Restart")
			if want := map[smr.Scheme]uint64{smr.HP: 1, smr.Anchors: 1}[c.sc]; m.Stats().Restarts != want {
				t.Fatalf("restarts = %d, want %d", m.Stats().Restarts, want)
			}

			g.Protect(0, pa)
			g.End()
			shared("End")
			if g.state.Load()&1 != 0 || g.anchor.Load() != 0 || hp(0) != 0 {
				t.Fatalf("End left state %#x, anchor %d, hazard pointer %d", g.state.Load(), g.anchor.Load(), hp(0))
			}
			g.Retire(a)
			shared("Retire")
		})
	}
}
