package list_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dstest"
	"repro/internal/list"
	"repro/internal/sizing"
	"repro/internal/smr"
)

// Factories sized so reclamation triggers frequently during the suites —
// tight capacities are deliberate: they maximize recycling churn and hence
// the chance of catching unsafe reclamation.
func factories(tight bool) map[string]struct {
	mk     dstest.Factory
	scheme smr.Scheme
} {
	capacity := 1 << 16
	if tight {
		capacity = 4096
	}
	fs := map[string]struct {
		mk     dstest.Factory
		scheme smr.Scheme
	}{
		"OA": {
			mk: func(threads int) smr.Set {
				return list.NewOA(core.Config{MaxThreads: threads, Capacity: capacity, LocalPool: 16})
			},
			scheme: smr.OA,
		},
	}
	c := sizing.Config{Capacity: capacity, ScanThreshold: 64, OpsPerScan: 32, AnchorsK: 8}
	for _, sc := range []smr.Scheme{smr.NoRecl, smr.HP, smr.EBR, smr.Anchors} {
		fs[sc.String()] = struct {
			mk     dstest.Factory
			scheme smr.Scheme
		}{dstest.Build(list.New, sc, c), sc}
	}
	return fs
}

func TestListSequential(t *testing.T) {
	for name, f := range factories(true) {
		t.Run(name, func(t *testing.T) { dstest.RunSequentialSuite(t, f.mk) })
	}
}

func TestListConcurrent(t *testing.T) {
	for name, f := range factories(false) {
		t.Run(name, func(t *testing.T) { dstest.RunConcurrentSuite(t, f.mk) })
	}
}

func TestListStats(t *testing.T) {
	for name, f := range factories(true) {
		t.Run(name, func(t *testing.T) { dstest.RunStats(t, f.mk, f.scheme) })
	}
}

// OA-specific: heavy churn on a tiny capacity forces constant phase
// changes; the suite above catches stale-read bugs, this one checks the
// scheme is actually being exercised (phases and restarts happen).
func TestOAListPhasesHappen(t *testing.T) {
	l := list.NewOA(core.Config{MaxThreads: 2, Capacity: 512, LocalPool: 8})
	s := l.Session(0)
	for i := 0; i < 20000; i++ {
		k := uint64(i%64) + 1
		s.Insert(k)
		s.Delete(k)
	}
	st := l.Stats()
	if st.Phases == 0 {
		t.Fatalf("no reclamation phases under churn: %+v", st)
	}
	if st.Recycled == 0 {
		t.Fatalf("nothing recycled under churn: %+v", st)
	}
}

// Anchors-specific: with a tiny K every traversal drops anchors; recycling
// still proceeds and semantics hold (covered by suites); here we check the
// anchor machinery ran.
func TestAnchorsListScans(t *testing.T) {
	l, err := list.New(smr.Anchors, sizing.Config{MaxThreads: 2, Capacity: 2048, AnchorsK: 4, ScanThreshold: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := l.Session(0)
	for i := 0; i < 10000; i++ {
		k := uint64(i%64) + 1
		s.Insert(k)
		s.Delete(k)
	}
	st := l.Stats()
	if st.Phases == 0 || st.Recycled == 0 {
		t.Fatalf("anchors reclamation inactive: %+v", st)
	}
}

// NoRecl leaks by definition: deleted nodes are never reused.
func TestNoReclLeaks(t *testing.T) {
	l, err := list.New(smr.NoRecl, sizing.Config{MaxThreads: 1, Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	s := l.Session(0)
	for i := 0; i < 1000; i++ {
		k := uint64(i%8) + 1
		s.Insert(k)
		s.Delete(k)
	}
	if st := l.Stats(); st.Retires == 0 || st.Recycled != 0 {
		t.Fatalf("NoRecl must retire every deleted node and recycle none: %+v", st)
	}
}

func TestListLinearizability(t *testing.T) {
	for name, f := range factories(true) {
		t.Run(name, func(t *testing.T) { dstest.RunLinearizability(t, f.mk) })
	}
}

// NoRecl, EBR, HP and Anchors share one traversal. What is left to tell
// them apart is checked here (see dstest.RunChurnReclaims).
func TestListChurnReclaims(t *testing.T) {
	for _, sc := range []smr.Scheme{smr.NoRecl, smr.HP, smr.EBR, smr.Anchors} {
		t.Run(sc.String(), func(t *testing.T) {
			set, err := list.New(sc, sizing.Config{MaxThreads: 1, Capacity: 4096, ScanThreshold: 32, OpsPerScan: 32})
			if err != nil {
				t.Fatal(err)
			}
			dstest.RunChurnReclaims(t, set, 32)
		})
	}
}
