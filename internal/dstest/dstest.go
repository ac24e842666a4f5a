// Package dstest provides reusable black-box test suites run against every
// (data structure × reclamation scheme) pair in the repository: sequential
// semantics against a model, randomized property tests, and concurrent
// stress with post-hoc consistency checking.
package dstest

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/linearize"
	"repro/internal/sizing"
	"repro/internal/smr"
)

// Factory builds a fresh empty set sized for the given worker count.
type Factory func(threads int) smr.Set

// Build is the Factory of a structure's New under scheme sc, sized by c
// with MaxThreads set per call. It panics if New rejects sc.
func Build(newSet func(smr.Scheme, sizing.Config) (smr.Set, error), sc smr.Scheme, c sizing.Config) Factory {
	return func(threads int) smr.Set {
		c := c
		c.MaxThreads = threads
		set, err := newSet(sc, c)
		if err != nil {
			panic(err)
		}
		return set
	}
}

// FuzzSizing sizes a single-threaded structure for one fuzz input of ops
// operations under sc. A pool of capacity slots, handed out four at a
// time, and scans every eight retires or operations maximize reclamation
// pressure per operation. NoRecl never recycles, so it gets one more slot
// per operation instead.
func FuzzSizing(sc smr.Scheme, capacity, ops int) sizing.Config {
	c := sizing.Config{MaxThreads: 1, Capacity: capacity, LocalPool: 4, ScanThreshold: 8, OpsPerScan: 8, AnchorsK: 4}
	if sc == smr.NoRecl {
		c.Capacity += ops
	}
	return c
}

// RunSetVsModel replays data as set operations on s against a model map,
// two bytes per operation: the opcode mod 3 (insert, delete, contains) and
// a key. A final sweep of the key range compares the whole set. It is the
// body of the set structures' fuzz targets.
func RunSetVsModel(t *testing.T, s smr.Session, data []byte) {
	t.Helper()
	model := map[uint64]bool{}
	for i := 0; i+1 < len(data); i += 2 {
		k := uint64(data[i+1]) + 1
		switch data[i] % 3 {
		case 0:
			if got, want := s.Insert(k), !model[k]; got != want {
				t.Fatalf("op %d: Insert(%d) = %v, want %v", i/2, k, got, want)
			}
			model[k] = true
		case 1:
			if got, want := s.Delete(k), model[k]; got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i/2, k, got, want)
			}
			delete(model, k)
		default:
			if got, want := s.Contains(k), model[k]; got != want {
				t.Fatalf("op %d: Contains(%d) = %v, want %v", i/2, k, got, want)
			}
		}
	}
	for k := uint64(1); k <= 256; k++ {
		if got := s.Contains(k); got != model[k] {
			t.Fatalf("final sweep: Contains(%d) = %v, want %v", k, got, model[k])
		}
	}
}

// RunSequentialSuite exercises single-threaded set semantics against a
// map-based model.
func RunSequentialSuite(t *testing.T, mk Factory) {
	t.Helper()

	t.Run("EmptySet", func(t *testing.T) {
		s := mk(1).Session(0)
		for _, k := range []uint64{1, 2, 100, 1 << 40} {
			if s.Contains(k) {
				t.Fatalf("empty set contains %d", k)
			}
			if s.Delete(k) {
				t.Fatalf("empty set deleted %d", k)
			}
		}
	})

	t.Run("InsertDeleteBasics", func(t *testing.T) {
		s := mk(1).Session(0)
		if !s.Insert(10) || !s.Insert(5) || !s.Insert(20) {
			t.Fatal("fresh inserts must succeed")
		}
		if s.Insert(10) {
			t.Fatal("duplicate insert must fail")
		}
		for _, k := range []uint64{5, 10, 20} {
			if !s.Contains(k) {
				t.Fatalf("missing %d", k)
			}
		}
		if s.Contains(15) {
			t.Fatal("phantom 15")
		}
		if !s.Delete(10) {
			t.Fatal("delete present must succeed")
		}
		if s.Delete(10) {
			t.Fatal("delete absent must fail")
		}
		if s.Contains(10) {
			t.Fatal("deleted key still present")
		}
		if !s.Contains(5) || !s.Contains(20) {
			t.Fatal("unrelated keys disturbed")
		}
		if !s.Insert(10) {
			t.Fatal("re-insert after delete must succeed")
		}
		if !s.Contains(10) {
			t.Fatal("re-inserted key missing")
		}
	})

	t.Run("SortedNeighborKeys", func(t *testing.T) {
		// Adjacent keys stress ordering logic and sentinel handling.
		s := mk(1).Session(0)
		for k := uint64(1); k <= 64; k++ {
			if !s.Insert(k) {
				t.Fatalf("insert %d", k)
			}
		}
		for k := uint64(2); k <= 64; k += 2 {
			if !s.Delete(k) {
				t.Fatalf("delete %d", k)
			}
		}
		for k := uint64(1); k <= 64; k++ {
			want := k%2 == 1
			if got := s.Contains(k); got != want {
				t.Fatalf("Contains(%d) = %v, want %v", k, got, want)
			}
		}
	})

	t.Run("ExtremeKeys", func(t *testing.T) {
		s := mk(1).Session(0)
		keys := []uint64{1, 1 << 63, ^uint64(0) - 1, 2, ^uint64(0)}
		for _, k := range keys {
			if !s.Insert(k) {
				t.Fatalf("insert %d", k)
			}
		}
		for _, k := range keys {
			if !s.Contains(k) {
				t.Fatalf("contains %d", k)
			}
			if !s.Delete(k) {
				t.Fatalf("delete %d", k)
			}
		}
	})

	t.Run("RandomOpsVsModel", func(t *testing.T) {
		s := mk(1).Session(0)
		model := map[uint64]bool{}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 20000; i++ {
			k := uint64(rng.Intn(200)) + 1
			switch rng.Intn(3) {
			case 0:
				if got, want := s.Insert(k), !model[k]; got != want {
					t.Fatalf("op %d: Insert(%d) = %v, want %v", i, k, got, want)
				}
				model[k] = true
			case 1:
				if got, want := s.Delete(k), model[k]; got != want {
					t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, want)
				}
				delete(model, k)
			default:
				if got, want := s.Contains(k), model[k]; got != want {
					t.Fatalf("op %d: Contains(%d) = %v, want %v", i, k, got, want)
				}
			}
		}
	})
}

// RunConcurrentSuite hammers the set from many goroutines and checks
// conservation properties that hold under any linearizable execution.
func RunConcurrentSuite(t *testing.T, mk Factory) {
	t.Helper()

	t.Run("DisjointKeyRanges", func(t *testing.T) {
		// Each worker owns a key range: its view must be perfectly
		// sequential even under concurrent structural interference.
		const threads = 8
		set := mk(threads)
		var wg sync.WaitGroup
		for id := 0; id < threads; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				s := set.Session(id)
				base := uint64(id)*1_000_000 + 1
				model := map[uint64]bool{}
				rng := rand.New(rand.NewSource(int64(id)))
				for i := 0; i < 8000; i++ {
					k := base + uint64(rng.Intn(64))
					switch rng.Intn(3) {
					case 0:
						if got, want := s.Insert(k), !model[k]; got != want {
							t.Errorf("thread %d: Insert(%d) = %v, want %v", id, k, got, want)
							return
						}
						model[k] = true
					case 1:
						if got, want := s.Delete(k), model[k]; got != want {
							t.Errorf("thread %d: Delete(%d) = %v, want %v", id, k, got, want)
							return
						}
						delete(model, k)
					default:
						if got, want := s.Contains(k), model[k]; got != want {
							t.Errorf("thread %d: Contains(%d) = %v, want %v", id, k, got, want)
							return
						}
					}
				}
			}(id)
		}
		wg.Wait()
	})

	t.Run("SharedKeysConservation", func(t *testing.T) {
		// All workers fight over a small key space. Count successful
		// inserts/deletes per key; at the end key presence must equal
		// (inserts - deletes) ∈ {0, 1}.
		const threads = 8
		const keys = 32
		set := mk(threads)
		var ins, del [keys + 1]struct {
			n int64
			_ [7]int64 // pad
		}
		var insMu, delMu [keys + 1]sync.Mutex
		var wg sync.WaitGroup
		for id := 0; id < threads; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				s := set.Session(id)
				rng := rand.New(rand.NewSource(int64(1000 + id)))
				for i := 0; i < 12000; i++ {
					k := uint64(rng.Intn(keys)) + 1
					if rng.Intn(2) == 0 {
						if s.Insert(k) {
							insMu[k].Lock()
							ins[k].n++
							insMu[k].Unlock()
						}
					} else {
						if s.Delete(k) {
							delMu[k].Lock()
							del[k].n++
							delMu[k].Unlock()
						}
					}
				}
			}(id)
		}
		wg.Wait()
		probe := set.Session(0)
		for k := uint64(1); k <= keys; k++ {
			diff := ins[k].n - del[k].n
			if diff != 0 && diff != 1 {
				t.Fatalf("key %d: %d inserts, %d deletes — impossible history",
					k, ins[k].n, del[k].n)
			}
			want := diff == 1
			if got := probe.Contains(k); got != want {
				t.Fatalf("key %d: Contains = %v, want %v (ins=%d del=%d)",
					k, got, want, ins[k].n, del[k].n)
			}
		}
	})

	t.Run("HighChurnSingleKey", func(t *testing.T) {
		// Maximum contention: every worker toggles the same key. Checks
		// that pairs of (successful insert, successful delete) alternate
		// globally: successes of each kind differ by at most the live bit.
		const threads = 8
		set := mk(threads)
		var okIns, okDel int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		for id := 0; id < threads; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				s := set.Session(id)
				for i := 0; i < 6000; i++ {
					if i%2 == id%2 {
						if s.Insert(7) {
							mu.Lock()
							okIns++
							mu.Unlock()
						}
					} else {
						if s.Delete(7) {
							mu.Lock()
							okDel++
							mu.Unlock()
						}
					}
				}
			}(id)
		}
		wg.Wait()
		diff := okIns - okDel
		if diff != 0 && diff != 1 {
			t.Fatalf("inserts=%d deletes=%d: impossible", okIns, okDel)
		}
		if want, got := diff == 1, set.Session(0).Contains(7); got != want {
			t.Fatalf("final Contains(7) = %v, want %v", got, want)
		}
	})
}

// RunLinearizability records real concurrent histories through the
// linearize.Recorder and verifies them with the Wing-Gong checker — the
// strongest oracle in the repository. Key spaces are sized so no key
// collects more operations than the checker's exact-search bound.
func RunLinearizability(t *testing.T, mk Factory) {
	t.Helper()
	const (
		threads   = 4
		rounds    = 60
		opsPerRnd = 4 // per thread per round: 16 ops over 4 keys each round
	)
	t.Run("RecordedHistories", func(t *testing.T) {
		for round := 0; round < rounds; round++ {
			rec := linearize.NewRecorder(mk(threads))
			keyBase := uint64(round*100 + 1)
			var wg sync.WaitGroup
			for id := 0; id < threads; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					s := rec.Session(id)
					rng := rand.New(rand.NewSource(int64(round*threads + id)))
					for i := 0; i < opsPerRnd; i++ {
						k := keyBase + uint64(rng.Intn(4))
						switch rng.Intn(3) {
						case 0:
							s.Insert(k)
						case 1:
							s.Delete(k)
						default:
							s.Contains(k)
						}
					}
				}(id)
			}
			wg.Wait()
			if r := linearize.Check(rec.History()); !r.Ok {
				t.Fatalf("round %d: history not linearizable at key %d:\n%v",
					round, r.Key, r.Witness)
			}
		}
	})
}

// RunStats sanity-checks the Stats plumbing after some traffic.
func RunStats(t *testing.T, mk Factory, wantScheme smr.Scheme) {
	t.Helper()
	set := mk(1)
	if set.Scheme() != wantScheme {
		t.Fatalf("Scheme() = %v, want %v", set.Scheme(), wantScheme)
	}
	s := set.Session(0)
	for k := uint64(1); k <= 100; k++ {
		s.Insert(k)
	}
	for k := uint64(1); k <= 100; k++ {
		s.Delete(k)
	}
	st := set.Stats()
	if st.Allocs == 0 {
		t.Fatalf("stats not wired: %+v", st)
	}
}

// RunChurnReclaims checks the one thing that tells apart the schemes
// sharing the plain traversal — what surrounds an operation and what
// Retire does. A single thread churns insert/contains/delete rounds well
// past the scan trigger (set must be built with OpsPerScan, and
// ScanThreshold, equal to opsPerScan); CheckChurnStats judges the result.
func RunChurnReclaims(t *testing.T, set smr.Set, opsPerScan int) {
	t.Helper()
	s := set.Session(0)
	rounds := 8 * opsPerScan
	for i := 0; i < rounds; i++ {
		k := uint64(i%64) + 1
		if !s.Insert(k) || !s.Contains(k) || !s.Delete(k) {
			t.Fatalf("round %d: insert/contains/delete of %d did not all succeed", i, k)
		}
	}
	CheckChurnStats(t, set.Scheme(), set.Stats(), 3*rounds, opsPerScan)
}

// CheckChurnStats judges the counters of a fresh single-threaded
// structure after ops operations of retire-producing churn: NoRecl must
// recycle nothing, every reclaiming scheme something, and under EBR the
// epoch must have advanced exactly once per opsPerScan operations — every
// operation type is inside the epoch bracket, or the count falls short.
func CheckChurnStats(t *testing.T, sc smr.Scheme, st smr.Stats, ops, opsPerScan int) {
	t.Helper()
	switch sc {
	case smr.NoRecl:
		if st.Recycled != 0 || st.Retires == 0 {
			t.Fatalf("NoRecl must retire and never recycle: %+v", st)
		}
	case smr.EBR:
		if want := uint64(ops / opsPerScan); st.Phases != want {
			t.Fatalf("EBR epoch = %d after %d operations at %d per scan, want %d: an operation runs outside the epoch bracket",
				st.Phases, ops, opsPerScan, want)
		}
		fallthrough
	default:
		if st.Recycled == 0 {
			t.Fatalf("%v recycled nothing under churn: %+v", sc, st)
		}
	}
}
