package hashtable_test

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dstest"
	"repro/internal/hashtable"
	"repro/internal/sizing"
	"repro/internal/smr"
)

func factories() map[string]struct {
	mk     dstest.Factory
	scheme smr.Scheme
} {
	const capacity = 1 << 15
	const expected = 1024
	fs := map[string]struct {
		mk     dstest.Factory
		scheme smr.Scheme
	}{
		"OA": {
			mk: func(threads int) smr.Set {
				return hashtable.NewOA(core.Config{MaxThreads: threads, Capacity: capacity, LocalPool: 16}, expected)
			},
			scheme: smr.OA,
		},
	}
	newTable := func(sc smr.Scheme, c sizing.Config) (smr.Set, error) { return hashtable.New(sc, c, expected) }
	c := sizing.Config{Capacity: capacity, ScanThreshold: 64, OpsPerScan: 32}
	for _, sc := range []smr.Scheme{smr.NoRecl, smr.HP, smr.EBR} {
		fs[sc.String()] = struct {
			mk     dstest.Factory
			scheme smr.Scheme
		}{dstest.Build(newTable, sc, c), sc}
	}
	return fs
}

func TestHashSequential(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) { dstest.RunSequentialSuite(t, f.mk) })
	}
}

func TestHashConcurrent(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) { dstest.RunConcurrentSuite(t, f.mk) })
	}
}

func TestHashStats(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) { dstest.RunStats(t, f.mk, f.scheme) })
	}
}

func TestBucketsSizing(t *testing.T) {
	cases := []struct {
		expected int
		lf       float64
		min      int
	}{
		{10000, 0.75, 13334},
		{1, 0.75, 2},
		{100, 0, 134}, // 0 → default load factor
	}
	for _, c := range cases {
		got := hashtable.Buckets(c.expected, c.lf)
		if got < c.min {
			t.Fatalf("Buckets(%d, %v) = %d, want >= %d", c.expected, c.lf, got, c.min)
		}
		if got&(got-1) != 0 {
			t.Fatalf("Buckets(%d, %v) = %d, not a power of two", c.expected, c.lf, got)
		}
	}
}

// Property: table behaviour is invariant under the bucket distribution —
// keys that collide modulo the mask still behave as a set.
func TestHashCollisionsQuick(t *testing.T) {
	h := hashtable.NewOA(core.Config{MaxThreads: 1, Capacity: 1 << 14, LocalPool: 16}, 64)
	s := h.Session(0)
	model := map[uint64]bool{}
	f := func(base uint64, stride uint8, op uint8) bool {
		// Strided keys produce deliberate bucket collisions.
		k := base + uint64(stride)*64
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
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// The paper's hash benchmark regime: bucket lists shorter than one node;
// reclamation must still engage under churn.
func TestHashOAChurnRecycles(t *testing.T) {
	h := hashtable.NewOA(core.Config{MaxThreads: 1, Capacity: 2048, LocalPool: 8}, 256)
	s := h.Session(0)
	for i := 0; i < 30000; i++ {
		k := uint64(i%512) + 1
		s.Insert(k)
		s.Delete(k)
	}
	st := h.Stats()
	if st.Phases == 0 || st.Recycled == 0 {
		t.Fatalf("hash/OA reclamation inactive: %+v", st)
	}
}

func TestHashLinearizability(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) { dstest.RunLinearizability(t, f.mk) })
	}
}

// The bucket lists ride the list's guarded engine, so the hash table
// inherits the EBR bracket, HP's scans and the NoRecl no-op retire; see
// dstest.RunChurnReclaims.
func TestHashChurnReclaims(t *testing.T) {
	for _, sc := range []smr.Scheme{smr.NoRecl, smr.HP, smr.EBR} {
		t.Run(sc.String(), func(t *testing.T) {
			set, err := hashtable.New(sc, sizing.Config{MaxThreads: 1, Capacity: 4096, ScanThreshold: 32, OpsPerScan: 32}, 64)
			if err != nil {
				t.Fatal(err)
			}
			dstest.RunChurnReclaims(t, set, 32)
		})
	}
}
