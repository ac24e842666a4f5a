package oamem_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/oamem"
)

// TestAcquireReleaseChurn multiplexes far more goroutines than session
// slots through a structure, asserting every Acquire either succeeds or
// fails with ErrNoFreeSessions, and that sessions work after lease churn.
// Run under -race this also checks the Release→Acquire happens-before
// edge on the recycled per-slot session state.
func TestAcquireReleaseChurn(t *testing.T) {
	const (
		slots   = 4
		workers = 32
		rounds  = 200
	)
	set, err := oamem.HashSet(oamem.WithThreads(slots), oamem.WithCapacity(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	var grants, rejects atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; {
				s, err := set.Acquire()
				if err != nil {
					if !errors.Is(err, oamem.ErrNoFreeSessions) {
						t.Errorf("Acquire: %v", err)
						return
					}
					rejects.Add(1)
					continue
				}
				grants.Add(1)
				if s.TID() < 0 || s.TID() >= slots {
					t.Errorf("TID %d out of range", s.TID())
				}
				k := uint64(w*rounds + r)
				s.Insert(k)
				if !s.Contains(k) {
					t.Errorf("lost key %d", k)
				}
				s.Delete(k)
				s.Release()
				r++
			}
		}(w)
	}
	wg.Wait()
	if got := grants.Load(); got != workers*rounds {
		t.Fatalf("grants = %d, want %d", got, workers*rounds)
	}
	if set.SessionsLeased() != 0 {
		t.Fatalf("SessionsLeased = %d after all releases", set.SessionsLeased())
	}
	t.Logf("%d grants, %d transient rejections over %d slots", grants.Load(), rejects.Load(), slots)
}

// TestAcquireExhaustionAndClose pins down the two typed failure modes of
// Acquire: ErrNoFreeSessions while all slots are leased, ErrClosed after
// Close — and that a lease held across Close stays releasable.
func TestAcquireExhaustionAndClose(t *testing.T) {
	set, err := oamem.List(oamem.WithThreads(2), oamem.WithCapacity(4096))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := set.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := set.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Acquire(); !errors.Is(err, oamem.ErrNoFreeSessions) {
		t.Fatalf("exhausted Acquire = %v, want ErrNoFreeSessions", err)
	}
	s1.Release()
	s3, err := set.Acquire()
	if err != nil {
		t.Fatalf("Acquire after Release: %v", err)
	}
	s3.Release()
	set.Close()
	if _, err := set.Acquire(); !errors.Is(err, oamem.ErrClosed) {
		t.Fatalf("Acquire after Close = %v, want ErrClosed", err)
	}
	s2.Insert(7) // lease held across Close stays usable...
	s2.Release() // ...and releasable.
}

// TestDoubleReleasePanics asserts the second Release of the same leased
// session panics instead of silently double-freeing the slot.
func TestDoubleReleasePanics(t *testing.T) {
	set, err := oamem.SkipList(oamem.WithThreads(1), oamem.WithCapacity(4096))
	if err != nil {
		t.Fatal(err)
	}
	s, err := set.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	s.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	s.Release()
}

// TestQueueLeasing covers Acquire/Release on the FIFO wrapper.
func TestQueueLeasing(t *testing.T) {
	q, err := oamem.FIFO(oamem.WithThreads(2), oamem.WithCapacity(4096))
	if err != nil {
		t.Fatal(err)
	}
	s, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	s.Enqueue(11)
	s.Enqueue(22)
	if v, ok := s.Dequeue(); !ok || v != 11 {
		t.Fatalf("Dequeue = %d,%v want 11,true", v, ok)
	}
	s.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second QueueSession.Release did not panic")
		}
	}()
	s.Release()
}

// TestOrderedLeasing covers Acquire/Release and RangeScan on the ordered
// set wrapper (which leases through the core manager's registry).
func TestOrderedLeasing(t *testing.T) {
	os, err := oamem.Ordered(oamem.WithThreads(2), oamem.WithCapacity(4096))
	if err != nil {
		t.Fatal(err)
	}
	s, err := os.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{30, 10, 20} {
		s.Insert(k)
	}
	var got []uint64
	s.RangeScan(10, 25, func(k uint64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("RangeScan = %v, want [10 20]", got)
	}
	s.Release()
	if _, err := os.Acquire(); err != nil {
		t.Fatalf("re-Acquire: %v", err)
	}
	os.Close()
	if _, err := os.Acquire(); !errors.Is(err, oamem.ErrClosed) {
		t.Fatalf("Acquire after Close = %v, want ErrClosed", err)
	}
}

// TestSessionStateSurvivesChurn asserts the per-slot scheme session is
// cached across leases: under OA a session holds a pending pre-allocated
// node, and rebuilding it per lease would leak one capacity slot per
// Acquire/Release cycle. With capacity barely above the live set, tens of
// thousands of churn cycles only stay within budget if the cache works.
func TestSessionStateSurvivesChurn(t *testing.T) {
	set, err := oamem.HashSet(oamem.WithThreads(1), oamem.WithCapacity(4096))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*4096; i++ {
		s, err := set.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		k := uint64(i % 8)
		s.Insert(k)
		s.Delete(k)
		s.Release()
	}
}

// TestOptionsValidation covers option merging, defaults and rejection.
// Every rejection must wrap the typed ErrInvalidOptions sentinel.
func TestOptionsValidation(t *testing.T) {
	rejected := map[string]error{}
	collect := func(name string, _ any, err error) {
		if err == nil {
			t.Fatalf("%s accepted", name)
		}
		rejected[name] = err
	}
	st, err := oamem.List(oamem.WithThreads(-1))
	collect("negative threads", st, err)
	st, err = oamem.HashSet(oamem.WithCapacity(-5))
	collect("negative capacity", st, err)
	st, err = oamem.HashSet(oamem.WithScheme(oamem.Anchors))
	collect("anchors hash set", st, err)
	m, err := oamem.KV(oamem.WithScheme(oamem.HP))
	collect("non-OA kv map", m, err)
	os, err := oamem.Ordered(oamem.WithScheme(oamem.EBR))
	collect("non-OA ordered set", os, err)
	cc, err := oamem.Cache(oamem.WithTTL(-time.Second))
	collect("negative TTL", cc, err)
	cc, err = oamem.Cache(oamem.WithEvictionPolicy(oamem.EvictLRU(-1)))
	collect("negative eviction watermark", cc, err)
	for name, err := range rejected {
		if !errors.Is(err, oamem.ErrInvalidOptions) {
			t.Fatalf("%s: error %v does not wrap ErrInvalidOptions", name, err)
		}
	}

	// Later options override earlier ones.
	set, err := oamem.List(
		oamem.WithThreads(2), oamem.WithCapacity(4096),
		oamem.WithThreads(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if set.Threads() != 3 {
		t.Fatalf("Threads = %d, want 3 (override)", set.Threads())
	}
	if set.Scheme() != oamem.OA {
		t.Fatalf("default scheme = %v, want OA", set.Scheme())
	}
}
