package dstest

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/smr"
)

// Storm broadcasts fake reclamation phases from its own goroutine until
// Stop, as a recycler announcing phase after phase would. The phases lie
// far above anything a real recycler reaches and change every round, so
// the once-per-phase stamp check never suppresses one.
type Storm struct {
	injected   atomic.Uint64
	stop, done chan struct{}
	halt       sync.Once
}

// StartStorm starts the storm: inject (a manager's InjectWarnings) is
// called with a new fake phase every round, and pause runs between rounds
// (nil spins briefly, letting the workers make progress).
func StartStorm(inject func(phase uint32), pause func()) *Storm {
	if pause == nil {
		pause = func() {
			var x atomic.Uint32
			for range 200 {
				x.Load()
			}
		}
	}
	s := &Storm{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for fake := uint32(1 << 20); ; fake += 2 {
			select {
			case <-s.stop:
				return
			default:
			}
			inject(fake)
			s.injected.Add(1)
			pause()
		}
	}()
	return s
}

// Await is a worker's yield point. It waits, for at most a second, until
// the storm has injected more than seen rounds, and returns the count it
// saw. A worker passes back what it got last time, so at least one
// injection lands between any two of its yield points however the
// scheduler shares the CPUs.
func (s *Storm) Await(seen uint64) uint64 {
	deadline := time.Now().Add(time.Second)
	for s.injected.Load() <= seen && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	return s.injected.Load()
}

// Stop ends the storm and waits for its goroutine. Later calls do
// nothing.
func (s *Storm) Stop() {
	s.halt.Do(func() { close(s.stop) })
	<-s.done
}

// WarningStorm runs ops operations of s, one at a time, against a model
// while a Storm injects warnings through inject, waiting for an injection
// every 512 operations. A warning may only ever restart a parallelizable
// method, so every result must match the model; and the storm must have
// caused a restart (stats().Restarts > 0), or it never reached the
// barriers.
func WarningStorm(t *testing.T, s smr.Session, inject func(phase uint32), stats func() smr.Stats, ops int, seed int64) {
	t.Helper()
	storm := StartStorm(inject, nil)
	defer storm.Stop()
	model := map[uint64]bool{}
	rng := rand.New(rand.NewSource(seed))
	var seen uint64
	for i := 0; i < ops; i++ {
		if i%512 == 0 {
			seen = storm.Await(seen)
		}
		k := uint64(rng.Intn(128)) + 1
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
	storm.Stop()
	for k := uint64(1); k <= 128; k++ {
		if got, want := s.Contains(k), model[k]; got != want {
			t.Fatalf("final: Contains(%d) = %v, want %v", k, got, want)
		}
	}
	if st := stats(); st.Restarts == 0 {
		t.Fatal("storm produced no restarts — injection not reaching the barriers")
	}
}
