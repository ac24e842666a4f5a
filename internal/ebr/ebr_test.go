package ebr

import (
	"sync"
	"sync/atomic"
	"testing"
)

type tnode struct {
	key  atomic.Uint64
	next atomic.Uint64
}

func reset(n *tnode) { n.key.Store(0); n.next.Store(0) }

func TestEpochAdvancesWhenQuiescent(t *testing.T) {
	m := NewManager[tnode](Config{MaxThreads: 2, Capacity: 64, OpsPerScan: 1}, reset)
	th := m.Thread(0)
	e0 := m.Epoch()
	for i := 0; i < 10; i++ {
		th.OnOpStart()
		th.OnOpEnd()
	}
	if m.Epoch() <= e0 {
		t.Fatalf("epoch stuck at %d", m.Epoch())
	}
}

func TestGracePeriodBeforeFree(t *testing.T) {
	m := NewManager[tnode](Config{MaxThreads: 1, Capacity: 64, OpsPerScan: 1}, reset)
	th := m.Thread(0)
	th.OnOpStart()
	s := th.Alloc()
	th.Retire(s)
	gen := m.Arena().Gen(s)
	th.OnOpEnd()
	if m.Arena().Gen(s) != gen {
		t.Fatal("slot freed with no grace period")
	}
	// Three epoch turns guarantee the retire generation is freed.
	for i := 0; i < 6; i++ {
		th.OnOpStart()
		th.OnOpEnd()
	}
	if m.Arena().Gen(s) == gen {
		t.Fatal("slot never freed after grace period")
	}
}

// A slot retired after the global epoch moved past the retirer's
// announcement may be held by an operation announced at the newer epoch;
// it must survive until that operation ends.
func TestRetireOutlivesReadersOfANewerEpoch(t *testing.T) {
	m := NewManager[tnode](Config{MaxThreads: 3, Capacity: 64, OpsPerScan: 1}, reset)
	retirer, reader, driver := m.Thread(0), m.Thread(1), m.Thread(2)
	retirer.OnOpStart()
	s := retirer.Alloc()
	gen := m.Arena().Gen(s)
	driver.OnOpStart() // the retirer announced the current epoch: advance
	driver.OnOpEnd()
	reader.OnOpStart() // announced at the newer epoch, while s is still linked
	retirer.Retire(s)
	retirer.OnOpEnd()
	driver.OnOpStart()
	driver.OnOpEnd()
	if m.Arena().Gen(s) != gen {
		t.Fatal("slot freed while an operation that could reach it still runs")
	}
	reader.OnOpEnd()
	for i := 0; i < 6; i++ {
		retirer.OnOpStart()
		retirer.OnOpEnd()
	}
	if m.Arena().Gen(s) == gen {
		t.Fatal("slot never freed after the reader ended")
	}
}

// The paper's central criticism of EBR: a stalled thread freezes
// reclamation entirely.
func TestStalledThreadBlocksReclamation(t *testing.T) {
	m := NewManager[tnode](Config{MaxThreads: 2, Capacity: 256, OpsPerScan: 1}, reset)
	stalled, worker := m.Thread(0), m.Thread(1)
	stalled.OnOpStart() // never ends its operation
	e := m.Epoch()
	for i := 0; i < 500; i++ {
		worker.OnOpStart()
		s := worker.Alloc()
		worker.Retire(s)
		worker.OnOpEnd()
	}
	if m.Epoch() > e+1 {
		t.Fatalf("epoch advanced %d -> %d past a stalled thread", e, m.Epoch())
	}
	if got := worker.LimboSize(); got < 400 {
		t.Fatalf("limbo should accumulate behind the stalled thread, got %d", got)
	}
	if m.Stats().Recycled > 100 {
		t.Fatalf("reclamation should be (nearly) frozen, recycled %d", m.Stats().Recycled)
	}
	// Unstall: reclamation resumes.
	stalled.OnOpEnd()
	for i := 0; i < 20; i++ {
		worker.OnOpStart()
		worker.OnOpEnd()
	}
	if m.Stats().Recycled < 400 {
		t.Fatalf("reclamation did not resume: recycled = %d", m.Stats().Recycled)
	}
}

// No slot may be freed while an operation that could have seen it is
// running: stress with an invariant cell per slot.
func TestNoEarlyFreeUnderChurn(t *testing.T) {
	const threads = 6
	m := NewManager[tnode](Config{MaxThreads: threads, Capacity: 4096, OpsPerScan: 16}, reset)
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := m.Thread(id)
			for i := 0; i < 20000; i++ {
				th.OnOpStart()
				s := th.Alloc()
				n := th.Node(s)
				n.key.Store(uint64(s) ^ 0xABCD)
				// While this op runs, the slot we retired is unreachable to
				// others but must stay intact for us.
				th.Retire(s)
				if got := n.key.Load(); got != uint64(s)^0xABCD {
					t.Errorf("retired slot mutated during its grace period: %#x", got)
					return
				}
				th.OnOpEnd()
			}
		}(id)
	}
	wg.Wait()
	if m.Stats().Recycled == 0 {
		t.Fatal("no recycling under churn")
	}
}

func TestStatsAggregation(t *testing.T) {
	m := NewManager[tnode](Config{MaxThreads: 1, Capacity: 32}, reset)
	th := m.Thread(0)
	th.OnOpStart()
	s := th.Alloc()
	th.Retire(s)
	th.OnOpEnd()
	st := m.Stats()
	if st.Allocs != 1 || st.Retires != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if th.ID() != 0 {
		t.Fatal("ID")
	}
}
