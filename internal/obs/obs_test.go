package obs

import (
	"sync"
	"testing"
	"unsafe"
)

// Per-thread blocks must not share cache lines: the struct is padded to a
// multiple of 128 bytes (two lines, covering adjacent-line prefetch).
func TestPerThreadPadding(t *testing.T) {
	if s := unsafe.Sizeof(PerThread{}); s%128 != 0 {
		t.Fatalf("PerThread is %d bytes, want a multiple of 128", s)
	}
}

func TestCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		n := c.String()
		if n == "" {
			t.Fatalf("counter %d has no name", c)
		}
		if seen[n] {
			t.Fatalf("duplicate counter name %q", n)
		}
		seen[n] = true
	}
}

// Aggregation runs while writers hammer their blocks; with the race
// detector on, this test is the proof that live Stats scraping is safe.
// Totals observed mid-flight must be monotonic (each counter is a sum of
// monotonic atomics), and after the writers join the totals are exact.
func TestConcurrentAggregation(t *testing.T) {
	const (
		writers = 4
		perOp   = 10000
	)
	ts := NewThreadStats(writers)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Reader: aggregate continuously, checking monotonicity.
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		var prev [NumCounters]uint64
		for {
			tot := ts.Totals()
			for c := Counter(0); c < NumCounters; c++ {
				if tot[c] < prev[c] {
					t.Errorf("counter %v went backwards: %d -> %d", c, prev[c], tot[c])
					return
				}
			}
			prev = tot
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := ts.At(w)
			for i := 0; i < perOp; i++ {
				b.Inc(Allocs)
				b.Add(Retires, 2)
				b.Inc(Restarts)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	if got := ts.Total(Allocs); got != writers*perOp {
		t.Fatalf("Allocs total = %d, want %d", got, writers*perOp)
	}
	if got := ts.Total(Retires); got != 2*writers*perOp {
		t.Fatalf("Retires total = %d, want %d", got, 2*writers*perOp)
	}
	if got := ts.Totals()[Restarts]; got != writers*perOp {
		t.Fatalf("Restarts total = %d, want %d", got, writers*perOp)
	}
}

func TestEnabledToggle(t *testing.T) {
	if Enabled() {
		t.Fatal("hot-path counters enabled by default")
	}
	SetEnabled(true)
	if !Enabled() {
		t.Fatal("SetEnabled(true) not observed")
	}
	SetEnabled(false)
	if Enabled() {
		t.Fatal("SetEnabled(false) not observed")
	}
}

func TestStorePublishesRunningCount(t *testing.T) {
	ts := NewThreadStats(2)
	ts.At(0).Store(Ops, 300)
	ts.At(1).Store(Ops, 200)
	ts.At(0).Store(Ops, 500) // running count replaces, never adds
	if got := ts.Total(Ops); got != 700 {
		t.Fatalf("Total(Ops) = %d, want 700", got)
	}
}
