package skiplist

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dstest"
	"repro/internal/sizing"
	"repro/internal/smr"
)

func factories() map[string]struct {
	mk     dstest.Factory
	scheme smr.Scheme
} {
	const capacity = 1 << 15
	fs := map[string]struct {
		mk     dstest.Factory
		scheme smr.Scheme
	}{
		"OA": {
			mk: func(threads int) smr.Set {
				return NewOA(core.Config{MaxThreads: threads, Capacity: capacity, LocalPool: 16})
			},
			scheme: smr.OA,
		},
	}
	c := sizing.Config{Capacity: capacity, ScanThreshold: 64, OpsPerScan: 32}
	for _, sc := range []smr.Scheme{smr.NoRecl, smr.HP, smr.EBR} {
		fs[sc.String()] = struct {
			mk     dstest.Factory
			scheme smr.Scheme
		}{dstest.Build(New, sc, c), sc}
	}
	return fs
}

func TestSkipListSequential(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) { dstest.RunSequentialSuite(t, f.mk) })
	}
}

func TestSkipListConcurrent(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) { dstest.RunConcurrentSuite(t, f.mk) })
	}
}

func TestSkipListStats(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) { dstest.RunStats(t, f.mk, f.scheme) })
	}
}

// Level distribution must be geometric: roughly half the nodes at each
// successive level, never exceeding MaxLevel.
func TestLevelDistribution(t *testing.T) {
	rng := newLevelRng(12345)
	const n = 1 << 16
	var counts [MaxLevel + 1]int
	for i := 0; i < n; i++ {
		h := rng.next()
		if h < 1 || h > MaxLevel {
			t.Fatalf("height %d out of range", h)
		}
		counts[h]++
	}
	// P(h == 1) = 1/2 ± tolerance; P(h >= 4) = 1/8 ± tolerance.
	if f := float64(counts[1]) / n; f < 0.45 || f > 0.55 {
		t.Fatalf("P(h=1) = %.3f, want ≈ 0.5", f)
	}
	tail := 0
	for h := 4; h <= MaxLevel; h++ {
		tail += counts[h]
	}
	if f := float64(tail) / n; f < 0.09 || f > 0.16 {
		t.Fatalf("P(h>=4) = %.3f, want ≈ 0.125", f)
	}
}

func TestLevelRngZeroSeed(t *testing.T) {
	rng := newLevelRng(0)
	if h := rng.next(); h < 1 || h > MaxLevel {
		t.Fatalf("zero-seed rng produced height %d", h)
	}
}

// Property: a skip list behaves as a set under random operation sequences
// (the quick harness drives the OA variant, the most intricate one).
func TestSkipListQuickSetSemantics(t *testing.T) {
	sl := NewOA(core.Config{MaxThreads: 1, Capacity: 1 << 14, LocalPool: 16})
	s := sl.Session(0)
	model := map[uint64]bool{}
	f := func(k16 uint16, op uint8) bool {
		k := uint64(k16) + 1
		switch op % 3 {
		case 0:
			want := !model[k]
			if s.Insert(k) != want {
				return false
			}
			model[k] = true
		case 1:
			want := model[k]
			if s.Delete(k) != want {
				return false
			}
			delete(model, k)
		default:
			if s.Contains(k) != model[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Tall nodes exercise multi-level marking: insert enough keys that some
// reach high levels, then delete them all and verify emptiness.
func TestSkipListTallNodes(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			set := f.mk(1)
			s := set.Session(0)
			const n = 4096 // E[max height] ≈ 12: well above one level
			for k := uint64(1); k <= n; k++ {
				if !s.Insert(k) {
					t.Fatalf("insert %d", k)
				}
			}
			for k := uint64(1); k <= n; k++ {
				if !s.Contains(k) {
					t.Fatalf("missing %d", k)
				}
			}
			for k := uint64(1); k <= n; k++ {
				if !s.Delete(k) {
					t.Fatalf("delete %d", k)
				}
			}
			for k := uint64(1); k <= n; k++ {
				if s.Contains(k) {
					t.Fatalf("zombie %d", k)
				}
			}
		})
	}
}

// Under churn the OA skip list must actually recycle through phases.
func TestSkipListOARecycles(t *testing.T) {
	sl := NewOA(core.Config{MaxThreads: 1, Capacity: 2048, LocalPool: 8})
	s := sl.Session(0)
	for i := 0; i < 20000; i++ {
		k := uint64(i%128) + 1
		s.Insert(k)
		s.Delete(k)
	}
	st := sl.Stats()
	if st.Phases == 0 || st.Recycled == 0 {
		t.Fatalf("OA skip list reclamation inactive: %+v", st)
	}
}

// The multi-CAS normalized delete: deleting a tall node emits one mark CAS
// per level; verify deletes of tall nodes work when the node height is
// known to be > 1 (statistically guaranteed over many keys).
func TestSkipListDeleteTall(t *testing.T) {
	sl := NewOA(core.Config{MaxThreads: 1, Capacity: 1 << 14, LocalPool: 16})
	s := sl.Session(0).(*oaSession)
	tall := 0
	for k := uint64(1); k <= 512; k++ {
		s.Insert(k)
	}
	for k := uint64(1); k <= 512; k++ {
		if s.find(k); true {
			n := s.c.Node(s.succs[0].Slot())
			if n.Height.Load() > 1 {
				tall++
			}
		}
		if !s.Delete(k) {
			t.Fatalf("delete %d", k)
		}
	}
	if tall < 100 {
		t.Fatalf("only %d tall nodes out of 512 — rng broken?", tall)
	}
}

func TestSkipListLinearizability(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) { dstest.RunLinearizability(t, f.mk) })
	}
}

// NoRecl, EBR and HP share one skip list; what is left to tell them apart
// is checked here (see dstest.RunChurnReclaims).
func TestSkipListChurnReclaims(t *testing.T) {
	for _, sc := range []smr.Scheme{smr.NoRecl, smr.HP, smr.EBR} {
		t.Run(sc.String(), func(t *testing.T) {
			set, err := New(sc, sizing.Config{MaxThreads: 1, Capacity: 4096, ScanThreshold: 32, OpsPerScan: 32})
			if err != nil {
				t.Fatal(err)
			}
			dstest.RunChurnReclaims(t, set, 32)
		})
	}
}
