package kvmap

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func newMap(threads, capacity, expected int) *Map {
	return New(core.Config{MaxThreads: threads, Capacity: capacity, LocalPool: 16}, expected)
}

func TestBasicOps(t *testing.T) {
	m := newMap(1, 4096, 256)
	s := m.Session(0)

	if _, ok := s.Get(1); ok {
		t.Fatal("empty map Get")
	}
	if _, ok := s.Remove(1); ok {
		t.Fatal("empty map Remove")
	}
	if !s.PutIfAbsent(1, 100) {
		t.Fatal("fresh PutIfAbsent failed")
	}
	if s.PutIfAbsent(1, 200) {
		t.Fatal("duplicate PutIfAbsent succeeded")
	}
	if v, ok := s.Get(1); !ok || v != 100 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if prev, had := s.Put(1, 300); !had || prev != 100 {
		t.Fatalf("Put prev = %d,%v", prev, had)
	}
	if v, ok := s.Get(1); !ok || v != 300 {
		t.Fatalf("Get after Put = %d,%v", v, ok)
	}
	if prev, had := s.Put(2, 7); had || prev != 0 {
		t.Fatalf("inserting Put = %d,%v", prev, had)
	}
	if v, ok := s.Remove(1); !ok || v != 300 {
		t.Fatalf("Remove = %d,%v", v, ok)
	}
	if _, ok := s.Get(1); ok {
		t.Fatal("removed key still present")
	}
	if v, ok := s.Get(2); !ok || v != 7 {
		t.Fatalf("unrelated key disturbed: %d,%v", v, ok)
	}
}

func TestRandomOpsVsModel(t *testing.T) {
	m := newMap(1, 1<<14, 512)
	s := m.Session(0)
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 30000; i++ {
		k := uint64(rng.Intn(300)) + 1
		v := rng.Uint64()
		switch rng.Intn(4) {
		case 0:
			prev, wantHad := model[k], false
			if _, inModel := model[k]; inModel {
				wantHad = true
			}
			gotPrev, had := s.Put(k, v)
			if had != wantHad || (had && gotPrev != prev) {
				t.Fatalf("op %d: Put(%d) = %d,%v want %d,%v", i, k, gotPrev, had, prev, wantHad)
			}
			model[k] = v
		case 1:
			_, wantOk := model[k]
			if got := s.PutIfAbsent(k, v); got != !wantOk {
				t.Fatalf("op %d: PutIfAbsent(%d) = %v", i, k, got)
			}
			if !wantOk {
				model[k] = v
			}
		case 2:
			want, wantOk := model[k]
			got, ok := s.Remove(k)
			if ok != wantOk || (ok && got != want) {
				t.Fatalf("op %d: Remove(%d) = %d,%v want %d,%v", i, k, got, ok, want, wantOk)
			}
			delete(model, k)
		default:
			want, wantOk := model[k]
			got, ok := s.Get(k)
			if ok != wantOk || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, got, ok, want, wantOk)
			}
		}
	}
	if m.Stats().Allocs == 0 {
		t.Fatal("stats not wired")
	}
}

// Property: Put always returns the previous value of the chain.
func TestQuickPutChain(t *testing.T) {
	m := newMap(1, 1<<14, 64)
	s := m.Session(0)
	last := map[uint64]uint64{}
	f := func(k8 uint8, v uint64) bool {
		k := uint64(k8) + 1
		prev, had := s.Put(k, v)
		expPrev, expHad := last[k], false
		if _, ok := last[k]; ok {
			expHad = true
		}
		last[k] = v
		return had == expHad && (!had || prev == expPrev)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Disjoint-key concurrency: each worker's slice of the key space behaves
// sequentially under heavy cross-bucket interference and recycling churn.
func TestConcurrentDisjoint(t *testing.T) {
	const threads = 6
	m := newMap(threads, 1<<14, 1024)
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := m.Session(id)
			base := uint64(id) << 32
			model := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < 15000; i++ {
				k := base + uint64(rng.Intn(128)) + 1
				v := rng.Uint64()
				switch rng.Intn(3) {
				case 0:
					prev, had := s.Put(k, v)
					want, wantHad := model[k]
					_ = want
					if had != wantHad || (had && prev != model[k]) {
						t.Errorf("thread %d: Put(%d) prev mismatch", id, k)
						return
					}
					model[k] = v
				case 1:
					got, ok := s.Remove(k)
					want, wantOk := model[k]
					if ok != wantOk || (ok && got != want) {
						t.Errorf("thread %d: Remove(%d) mismatch", id, k)
						return
					}
					delete(model, k)
				default:
					got, ok := s.Get(k)
					want, wantOk := model[k]
					if ok != wantOk || (ok && got != want) {
						t.Errorf("thread %d: Get(%d) = %d,%v want %d,%v", id, k, got, ok, want, wantOk)
						return
					}
				}
			}
		}(id)
	}
	wg.Wait()
}

// Value handoff under contention: concurrent Put/Remove on one key must
// never lose or duplicate a value — every successful Remove returns the
// value of some Put, and each Put's value is removed at most once.
func TestConcurrentValueHandoff(t *testing.T) {
	const threads = 4
	m := newMap(threads, 1<<14, 64)
	var mu sync.Mutex
	removed := map[uint64]int{}
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := m.Session(id)
			for i := 0; i < 8000; i++ {
				v := uint64(id)<<32 | uint64(i) + 1
				if id%2 == 0 {
					s.PutIfAbsent(42, v)
				} else if got, ok := s.Remove(42); ok {
					mu.Lock()
					removed[got]++
					mu.Unlock()
				}
			}
		}(id)
	}
	wg.Wait()
	for v, n := range removed {
		if n != 1 {
			t.Fatalf("value %#x removed %d times", v, n)
		}
	}
}

// TestRemoveRetiresWithinCall: Remove and RemoveIfAux unlink and retire
// the node they mark before returning. This is the bulk-eviction case —
// a sweep removes entry after entry and no traversal is coming to help
// unlink them before the starving allocator needs the slots.
func TestRemoveRetiresWithinCall(t *testing.T) {
	m := newMap(1, 4096, 256)
	s := m.Session(0)
	const n = 200
	for k := uint64(1); k <= n; k++ {
		if !s.PutIfAbsentWithAux(k, 10*k, k&1) {
			t.Fatalf("insert %d", k)
		}
	}
	for k := uint64(1); k <= n; k++ {
		before := m.Stats().Retires
		if k&1 == 1 {
			if !s.RemoveIfAux(k, 1, 1) {
				t.Fatalf("RemoveIfAux(%d) refused", k)
			}
		} else if v, ok := s.Remove(k); !ok || v != 10*k {
			t.Fatalf("Remove(%d) = %d, %v", k, v, ok)
		}
		if got := m.Stats().Retires - before; got != 1 {
			t.Fatalf("removing key %d retired %d nodes within the call, want 1", k, got)
		}
	}
}

// Recycling must engage under churn.
func TestMapRecycles(t *testing.T) {
	m := newMap(1, 2048, 256)
	s := m.Session(0)
	for i := 0; i < 30000; i++ {
		k := uint64(i%512) + 1
		s.PutIfAbsent(k, k)
		s.Remove(k)
	}
	st := m.Stats()
	if st.Phases == 0 || st.Recycled == 0 {
		t.Fatalf("map reclamation inactive: %+v", st)
	}
}
