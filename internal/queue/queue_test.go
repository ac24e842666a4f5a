package queue_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dstest"
	"repro/internal/queue"
	"repro/internal/sizing"
	"repro/internal/smr"
)

func factories() map[string]func(threads int) smr.Queue {
	const capacity = 1 << 15 // must cover the worst-case backlog of the concurrent tests
	fs := map[string]func(threads int) smr.Queue{
		"OA": func(threads int) smr.Queue {
			return queue.NewOA(core.Config{MaxThreads: threads, Capacity: capacity, LocalPool: 16})
		},
	}
	for _, sc := range []smr.Scheme{smr.NoRecl, smr.HP, smr.EBR} {
		fs[sc.String()] = func(threads int) smr.Queue {
			q, err := queue.New(sc, sizing.Config{MaxThreads: threads, Capacity: capacity, ScanThreshold: 32, OpsPerScan: 32})
			if err != nil {
				panic(err)
			}
			return q
		}
	}
	return fs
}

func TestQueueSequentialFIFO(t *testing.T) {
	for name, mk := range factories() {
		t.Run(name, func(t *testing.T) {
			q := mk(1).QueueSession(0)
			if _, ok := q.Dequeue(); ok {
				t.Fatal("empty queue dequeued")
			}
			for i := uint64(1); i <= 1000; i++ {
				q.Enqueue(i)
			}
			for i := uint64(1); i <= 1000; i++ {
				v, ok := q.Dequeue()
				if !ok || v != i {
					t.Fatalf("Dequeue = %d,%v, want %d", v, ok, i)
				}
			}
			if _, ok := q.Dequeue(); ok {
				t.Fatal("drained queue dequeued")
			}
		})
	}
}

func TestQueueInterleavedEmpty(t *testing.T) {
	for name, mk := range factories() {
		t.Run(name, func(t *testing.T) {
			q := mk(1).QueueSession(0)
			for round := 0; round < 500; round++ {
				q.Enqueue(uint64(round))
				v, ok := q.Dequeue()
				if !ok || v != uint64(round) {
					t.Fatalf("round %d: got %d,%v", round, v, ok)
				}
				if _, ok := q.Dequeue(); ok {
					t.Fatalf("round %d: phantom element", round)
				}
			}
		})
	}
}

// Concurrent: every enqueued value dequeued exactly once, and values from
// one producer come out in production order (per-producer FIFO — a
// necessary condition of queue linearizability).
func TestQueueConcurrentConservationAndOrder(t *testing.T) {
	for name, mk := range factories() {
		t.Run(name, func(t *testing.T) {
			const producers, consumers, perProducer = 3, 3, 8000
			qq := mk(producers + consumers)
			var wg sync.WaitGroup
			var producing atomic.Int32
			producing.Store(producers)
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					defer producing.Add(-1)
					q := qq.QueueSession(p)
					for i := 0; i < perProducer; i++ {
						q.Enqueue(uint64(p)<<32 | uint64(i))
					}
				}(p)
			}
			var mu sync.Mutex
			got := make(map[uint64]int)
			lastSeen := make([][]int, consumers)
			for c := 0; c < consumers; c++ {
				lastSeen[c] = make([]int, producers)
				for p := range lastSeen[c] {
					lastSeen[c][p] = -1
				}
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					q := qq.QueueSession(producers + c)
					for {
						v, ok := q.Dequeue()
						if !ok {
							// Stop only once every producer is done and the
							// queue is still empty afterwards (the flag drops
							// after the final enqueue linearized, so a
							// post-flag empty means the backlog was taken).
							if producing.Load() == 0 {
								if v2, ok2 := q.Dequeue(); ok2 {
									v, ok = v2, ok2
								} else {
									return
								}
							} else {
								continue
							}
						}
						_ = ok
						p := int(v >> 32)
						i := int(v & 0xFFFFFFFF)
						// Per-producer order as observed by one consumer
						// must be increasing.
						if i <= lastSeen[c][p] {
							t.Errorf("consumer %d saw producer %d's %d after %d",
								c, p, i, lastSeen[c][p])
							return
						}
						lastSeen[c][p] = i
						mu.Lock()
						got[v]++
						mu.Unlock()
					}
				}(c)
			}
			wg.Wait()
			if len(got) != producers*perProducer {
				t.Fatalf("dequeued %d distinct values, want %d", len(got), producers*perProducer)
			}
			for v, n := range got {
				if n != 1 {
					t.Fatalf("value %#x dequeued %d times", v, n)
				}
			}
		})
	}
}

// OA-specific: churn must recycle sentinels through phases.
func TestQueueOARecycles(t *testing.T) {
	q := queue.NewOA(core.Config{MaxThreads: 1, Capacity: 512, LocalPool: 8})
	s := q.QueueSession(0)
	for i := 0; i < 20000; i++ {
		s.Enqueue(uint64(i))
		if _, ok := s.Dequeue(); !ok {
			t.Fatal("lost element")
		}
	}
	st := q.Stats()
	if st.Phases == 0 || st.Recycled == 0 {
		t.Fatalf("queue reclamation inactive: %+v", st)
	}
	if q.Scheme() != smr.OA {
		t.Fatal("scheme")
	}
}

// The lagging-enqueue hazard: a recycled sentinel's next is zeroed, so a
// stale enqueue CAS could link onto a dead node — unless the scheme's
// barriers stop it. Heavy mixed traffic on a tiny arena exercises exactly
// this window; conservation (above) plus this smoke keep it honest.
func TestQueueTinyArenaChurn(t *testing.T) {
	for name, mk := range factories() {
		t.Run(name, func(t *testing.T) {
			qq := mk(4)
			var wg sync.WaitGroup
			var mu sync.Mutex
			seen := map[uint64]int{}
			for id := 0; id < 4; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					q := qq.QueueSession(id)
					for i := 0; i < 20000; i++ {
						q.Enqueue(uint64(id)<<32 | uint64(i))
						if v, ok := q.Dequeue(); ok {
							mu.Lock()
							seen[v]++
							mu.Unlock()
						}
					}
				}(id)
			}
			wg.Wait()
			for v, n := range seen {
				if n != 1 {
					t.Fatalf("value %#x dequeued %d times", v, n)
				}
			}
		})
	}
}

// NoRecl, EBR and HP share one queue; what is left to tell them apart — a
// retire that recycles, and both operations inside the epoch bracket — is
// checked here: single-thread churn well past the scan trigger.
func TestQueueChurnReclaims(t *testing.T) {
	const opsPerScan, rounds = 32, 256
	for _, sc := range []smr.Scheme{smr.NoRecl, smr.HP, smr.EBR} {
		t.Run(sc.String(), func(t *testing.T) {
			q, err := queue.New(sc, sizing.Config{MaxThreads: 1, Capacity: 4096, ScanThreshold: opsPerScan, OpsPerScan: opsPerScan})
			if err != nil {
				t.Fatal(err)
			}
			s := q.QueueSession(0)
			for i := uint64(0); i < rounds; i++ {
				s.Enqueue(i)
				if v, ok := s.Dequeue(); !ok || v != i {
					t.Fatalf("Dequeue = %d,%v, want %d", v, ok, i)
				}
			}
			dstest.CheckChurnStats(t, sc, q.Stats(), 2*rounds, opsPerScan)
		})
	}
}
