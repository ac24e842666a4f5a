package mpmc_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpmc"
)

func payload(words ...uint64) mpmc.Payload {
	var p mpmc.Payload
	copy(p[:], words)
	return p
}

func TestSequentialFIFO(t *testing.T) {
	g := mpmc.NewGroup(core.Config{MaxThreads: 1}, 1, 1024)
	s, q := g.Session(0), g.Queue(0)
	var p mpmc.Payload
	if s.Dequeue(q, &p) {
		t.Fatal("empty queue dequeued")
	}
	for i := uint64(1); i <= 1000; i++ {
		in := payload(i, i*3, ^i)
		if !s.TryEnqueue(q, &in) {
			t.Fatalf("enqueue %d refused below the bound", i)
		}
	}
	if got := q.Len(); got != 1000 {
		t.Fatalf("Len = %d, want 1000", got)
	}
	for i := uint64(1); i <= 1000; i++ {
		if !s.Dequeue(q, &p) {
			t.Fatalf("lost element %d", i)
		}
		if p[0] != i || p[1] != i*3 || p[2] != ^i {
			t.Fatalf("element %d: payload %v", i, p[:3])
		}
	}
	if s.Dequeue(q, &p) {
		t.Fatal("drained queue dequeued")
	}
	if got := q.Len(); got != 0 {
		t.Fatalf("Len after drain = %d, want 0", got)
	}
}

func TestBoundedFull(t *testing.T) {
	const bound = 8
	g := mpmc.NewGroup(core.Config{MaxThreads: 1}, 1, bound)
	s, q := g.Session(0), g.Queue(0)
	for i := 0; i < bound; i++ {
		in := payload(uint64(i))
		if !s.TryEnqueue(q, &in) {
			t.Fatalf("enqueue %d refused below the bound", i)
		}
	}
	in := payload(99)
	if s.TryEnqueue(q, &in) {
		t.Fatal("enqueue accepted past the bound")
	}
	if got := q.Len(); got != bound {
		t.Fatalf("Len = %d, want %d (failed enqueue must roll back its credit)", got, bound)
	}
	var p mpmc.Payload
	if !s.Dequeue(q, &p) || p[0] != 0 {
		t.Fatalf("dequeue after full = %v %v", p[0], p)
	}
	if !s.TryEnqueue(q, &in) {
		t.Fatal("enqueue refused after a dequeue freed a slot")
	}
	if q.Cap() != bound {
		t.Fatalf("Cap = %d, want %d", q.Cap(), bound)
	}
}

// Queues of one group share the arena but must stay independent streams.
func TestGroupIndependentQueues(t *testing.T) {
	g := mpmc.NewGroup(core.Config{MaxThreads: 1}, 4, 64)
	s := g.Session(0)
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			in := payload(uint64(i)<<32 | uint64(j))
			if !s.TryEnqueue(g.Queue(i), &in) {
				t.Fatalf("queue %d enqueue %d refused", i, j)
			}
		}
	}
	var p mpmc.Payload
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			if !s.Dequeue(g.Queue(i), &p) {
				t.Fatalf("queue %d lost element %d", i, j)
			}
			if want := uint64(i)<<32 | uint64(j); p[0] != want {
				t.Fatalf("queue %d: got %#x want %#x", i, p[0], want)
			}
		}
		if s.Dequeue(g.Queue(i), &p) {
			t.Fatalf("queue %d yielded a phantom element", i)
		}
	}
}

// Concurrent producers and consumers across two queues of one group:
// every value dequeued exactly once, per-producer order preserved per
// consumer, and the bound never breached. Run under -race.
func TestConcurrentConservationAndOrder(t *testing.T) {
	const producers, consumers, perProducer, bound = 3, 3, 6000, 128
	g := mpmc.NewGroup(core.Config{MaxThreads: producers + consumers}, 2, bound)
	var wg sync.WaitGroup
	var producing atomic.Int32
	producing.Store(producers)
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			defer producing.Add(-1)
			s, err := g.Acquire()
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Release()
			q := g.Queue(pr % g.Queues())
			for i := 0; i < perProducer; i++ {
				in := payload(uint64(pr)<<32|uint64(i), uint64(i))
				for !s.TryEnqueue(q, &in) {
					runtime.Gosched() // full: wait for the consumers
				}
			}
		}(pr)
	}
	var mu sync.Mutex
	got := make(map[uint64]int)
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s, err := g.Acquire()
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Release()
			q := g.Queue(c % g.Queues())
			lastSeen := [producers]int{-1, -1, -1}
			var p mpmc.Payload
			for {
				if !s.Dequeue(q, &p) {
					if producing.Load() != 0 {
						runtime.Gosched()
						continue
					}
					// Producers are done; one more empty read means the
					// backlog is truly drained.
					if !s.Dequeue(q, &p) {
						return
					}
				}
				pr := int(p[0] >> 32)
				i := int(p[0] & 0xFFFFFFFF)
				if uint64(i) != p[1] {
					t.Errorf("torn payload: %#x vs %d", p[0], p[1])
					return
				}
				// This consumer owns its queue's stream jointly with the
				// other consumer on the same queue, but a single producer's
				// values still arrive in order per consumer.
				if i <= lastSeen[pr] {
					t.Errorf("consumer %d saw producer %d's %d after %d", c, pr, i, lastSeen[pr])
					return
				}
				lastSeen[pr] = i
				if d := q.Len(); d > bound {
					t.Errorf("depth %d exceeds bound %d", d, bound)
					return
				}
				mu.Lock()
				got[p[0]]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	want := 0
	for pr := 0; pr < producers; pr++ {
		want += perProducer
	}
	if len(got) != want {
		t.Fatalf("dequeued %d distinct values, want %d", len(got), want)
	}
	for v, n := range got {
		if n != 1 {
			t.Fatalf("value %#x dequeued %d times", v, n)
		}
	}
}

// OA-specific: churn on a tiny arena must recycle nodes through phases,
// and payloads must never tear across a recycle (the optimistic payload
// read is validated before the head swing is sealed).
func TestRecyclesThroughPhases(t *testing.T) {
	g := mpmc.NewGroup(core.Config{MaxThreads: 1, Capacity: 256, LocalPool: 8}, 1, 64)
	s, q := g.Session(0), g.Queue(0)
	var p mpmc.Payload
	for i := uint64(0); i < 20000; i++ {
		in := payload(i, ^i)
		if !s.TryEnqueue(q, &in) {
			t.Fatalf("enqueue %d refused", i)
		}
		if !s.Dequeue(q, &p) {
			t.Fatalf("lost element %d", i)
		}
		if p[0] != i || p[1] != ^i {
			t.Fatalf("element %d: torn payload %v", i, p[:2])
		}
	}
	st := g.Stats()
	if st.Phases == 0 || st.Recycled == 0 {
		t.Fatalf("reclamation inactive: %+v", st)
	}
}

// Chaos: a producer goes dormant mid-stream ("stuck" from the scheme's
// point of view: holding a leased context across reclamation phase
// shifts, with warnings injected on top) while the rest of the group
// churns the arena through real phases. When it resumes, its pending
// state must still be coherent: everything it enqueues is delivered
// untorn, exactly once.
func TestChaosStuckProducerAcrossPhaseShift(t *testing.T) {
	const bound = 32
	g := mpmc.NewGroup(core.Config{MaxThreads: 3, Capacity: 512, LocalPool: 8}, 1, bound)
	mgr := g.Manager()
	q := g.Queue(0)

	stop := make(chan struct{})
	var storm sync.WaitGroup
	storm.Add(1)
	go func() {
		defer storm.Done()
		// Fake phases far above the real recycler's, changing every round
		// so the stamp check never suppresses them.
		fake := uint32(1 << 20)
		for {
			select {
			case <-stop:
				return
			default:
			}
			mgr.InjectWarnings(fake)
			fake += 2
			runtime.Gosched()
		}
	}()

	var mu sync.Mutex
	seen := make(map[uint64]int)
	var delivered atomic.Uint64
	var stuckDone atomic.Bool
	var wg sync.WaitGroup

	// Churn worker: drives real phase shifts by cycling nodes through a
	// tiny arena, and consumes everything (its own and the stuck
	// producer's) until the stuck producer has finished.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := g.Session(1)
		var p mpmc.Payload
		for i := uint64(0); i < 30000; i++ {
			in := payload(1<<40 | i)
			for !s.TryEnqueue(q, &in) {
				if !s.Dequeue(q, &p) {
					runtime.Gosched()
					continue
				}
				record(t, &mu, seen, &p, &delivered)
			}
			if s.Dequeue(q, &p) {
				record(t, &mu, seen, &p, &delivered)
			}
		}
		for !stuckDone.Load() {
			if s.Dequeue(q, &p) {
				record(t, &mu, seen, &p, &delivered)
			} else {
				runtime.Gosched()
			}
		}
	}()

	// The stuck producer: enqueue a third, sleep across several phase
	// shifts, resume.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stuckDone.Store(true)
		s := g.Session(2)
		p0 := mgr.Phase()
		for i := uint64(0); i < 3000; i++ {
			in := payload(2<<40 | i)
			for !s.TryEnqueue(q, &in) {
				runtime.Gosched()
			}
			if i == 1000 {
				// Dormant while the churn worker moves the phase on.
				deadline := time.Now().Add(time.Second)
				for mgr.Phase() < p0+4 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	storm.Wait()

	// Drain the backlog.
	s := g.Session(0)
	var p mpmc.Payload
	for s.Dequeue(q, &p) {
		record(t, &mu, seen, &p, &delivered)
	}

	var stuck, churn int
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %#x delivered %d times", v, n)
		}
		switch v >> 40 {
		case 1:
			churn++
		case 2:
			stuck++
		}
	}
	if stuck != 3000 {
		t.Fatalf("stuck producer delivered %d/3000", stuck)
	}
	if churn != 30000 {
		t.Fatalf("churn producer delivered %d/30000", churn)
	}
	if g.Stats().Phases == 0 {
		t.Fatal("no reclamation phases — the chaos never exercised a shift")
	}
}

func record(t *testing.T, mu *sync.Mutex, seen map[uint64]int, p *mpmc.Payload, delivered *atomic.Uint64) {
	t.Helper()
	mu.Lock()
	seen[p[0]]++
	mu.Unlock()
	delivered.Add(1)
}

func BenchmarkEnqueueDequeue(b *testing.B) {
	g := mpmc.NewGroup(core.Config{MaxThreads: 1}, 1, 1<<16)
	s, q := g.Session(0), g.Queue(0)
	var in, out mpmc.Payload
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in[0] = uint64(i)
		if !s.TryEnqueue(q, &in) {
			b.Fatal("full")
		}
		if !s.Dequeue(q, &out) {
			b.Fatal("empty")
		}
	}
}

func BenchmarkEnqueueDequeueParallel(b *testing.B) {
	n := runtime.GOMAXPROCS(0)
	g := mpmc.NewGroup(core.Config{MaxThreads: n}, 1, 1<<16)
	q := g.Queue(0)
	var tid atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		s := g.Session(int(tid.Add(1)-1) % n)
		var in, out mpmc.Payload
		for pb.Next() {
			if s.TryEnqueue(q, &in) {
				s.Dequeue(q, &out)
			}
		}
	})
}

// TestRecycledNodeCarriesWholePayload pins the single node
// initialisation: Alloc no longer zeroes a slot, so every word a
// consumer returns must come from the enqueue that published the node —
// never from the slot's previous occupant. Dense payloads alternate with
// all-zero ones on a tiny arena (slots recycle every few hundred
// operations), so a word TryEnqueue failed to store would surface as the
// previous occupant's dense word; under -race the consumers' optimistic
// loads are still validated by a warning check before the value is used.
func TestRecycledNodeCarriesWholePayload(t *testing.T) {
	const producers, perProducer, bound = 2, 20000, 16
	g := mpmc.NewGroup(core.Config{MaxThreads: 2 * producers, Capacity: 256, LocalPool: 8}, 1, bound)
	q := g.Queue(0)
	var wg sync.WaitGroup
	var enqueued, dequeued, sumIn, sumOut atomic.Uint64
	var producing atomic.Int32
	producing.Store(producers)
	for pr := 0; pr < producers; pr++ {
		wg.Add(2)
		go func(pr int) {
			defer wg.Done()
			defer producing.Add(-1)
			s := g.Session(pr)
			for i := uint64(1); i <= perProducer; i++ {
				id := uint64(pr+1)<<32 | i
				in := payload(id)
				if i%2 == 1 {
					for w := 1; w < mpmc.PayloadWords; w++ {
						in[w] = id * uint64(2*w+1)
					}
				}
				for !s.TryEnqueue(q, &in) {
					runtime.Gosched()
				}
				enqueued.Add(1)
				sumIn.Add(id)
			}
		}(pr)
		go func(pr int) {
			defer wg.Done()
			s := g.Session(producers + pr)
			var p mpmc.Payload
			for {
				if !s.Dequeue(q, &p) {
					if producing.Load() != 0 {
						runtime.Gosched()
						continue
					}
					if !s.Dequeue(q, &p) { // producers done: one more empty read = drained
						return
					}
				}
				id := p[0]
				for w := 1; w < mpmc.PayloadWords; w++ {
					want := uint64(0)
					if id&1 == 1 {
						want = id * uint64(2*w+1)
					}
					if p[w] != want {
						t.Errorf("payload %#x word %d = %#x, want %#x (a previous occupant's word survived)", id, w, p[w], want)
						return
					}
				}
				dequeued.Add(1)
				sumOut.Add(id)
			}
		}(pr)
	}
	wg.Wait()
	if enqueued.Load() != producers*perProducer || dequeued.Load() != enqueued.Load() || sumIn.Load() != sumOut.Load() {
		t.Fatalf("conservation: enqueued %d (sum %d), dequeued %d (sum %d)",
			enqueued.Load(), sumIn.Load(), dequeued.Load(), sumOut.Load())
	}
	if q.Len() != 0 {
		t.Fatalf("ring reports %d elements after the drain", q.Len())
	}
	if g.Stats().Recycled == 0 {
		t.Fatal("no slot was recycled — the test never reused a node")
	}
}
