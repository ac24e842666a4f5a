package guard

import (
	"sync"
	"testing"

	"repro/internal/sizing"
	"repro/internal/smr"
)

func newEBR(t *testing.T, c sizing.Config) *Manager[tnode] { return newMgr(t, smr.EBR, c, 0) }

func limboSize(g *Guard[tnode]) int {
	return len(g.limbo[0]) + len(g.limbo[1]) + len(g.limbo[2])
}

func TestEpochAdvancesWhenQuiescent(t *testing.T) {
	m := newEBR(t, sizing.Config{MaxThreads: 2, Capacity: 64, OpsPerScan: 1})
	g := m.Guard(0)
	e0 := m.clock.Load()
	for i := 0; i < 10; i++ {
		g.Begin()
		g.End()
	}
	if m.clock.Load() <= e0 {
		t.Fatalf("epoch stuck at %d", m.clock.Load())
	}
}

func TestGracePeriodBeforeFree(t *testing.T) {
	m := newEBR(t, sizing.Config{MaxThreads: 1, Capacity: 64, OpsPerScan: 1})
	g := m.Guard(0)
	g.Begin()
	s := g.Alloc()
	g.Retire(s)
	gen := m.Arena().Gen(s)
	g.End()
	if m.Arena().Gen(s) != gen {
		t.Fatal("slot freed with no grace period")
	}
	// Three epoch turns guarantee the retire generation is freed.
	for i := 0; i < 6; i++ {
		g.Begin()
		g.End()
	}
	if m.Arena().Gen(s) == gen {
		t.Fatal("slot never freed after grace period")
	}
}

// A slot retired after the global epoch moved past the retirer's
// announcement may be held by an operation announced at the newer epoch;
// it must survive until that operation ends.
func TestRetireOutlivesReadersOfANewerEpoch(t *testing.T) {
	m := newEBR(t, sizing.Config{MaxThreads: 3, Capacity: 64, OpsPerScan: 1})
	retirer, reader, advancer := m.Guard(0), m.Guard(1), m.Guard(2)
	retirer.Begin()
	s := retirer.Alloc()
	gen := m.Arena().Gen(s)
	advancer.Begin() // the retirer announced the current epoch: advance
	advancer.End()
	reader.Begin() // announced at the newer epoch, while s is still linked
	retirer.Retire(s)
	retirer.End()
	advancer.Begin()
	advancer.End()
	if m.Arena().Gen(s) != gen {
		t.Fatal("slot freed while an operation that could reach it still runs")
	}
	reader.End()
	for i := 0; i < 6; i++ {
		retirer.Begin()
		retirer.End()
	}
	if m.Arena().Gen(s) == gen {
		t.Fatal("slot never freed after the reader ended")
	}
}

// The paper's central criticism of EBR: a stalled thread freezes
// reclamation entirely.
func TestStalledThreadBlocksReclamation(t *testing.T) {
	m := newEBR(t, sizing.Config{MaxThreads: 2, Capacity: 256, OpsPerScan: 1})
	stalled, worker := m.Guard(0), m.Guard(1)
	stalled.Begin() // never ends its operation
	e := m.clock.Load()
	for i := 0; i < 500; i++ {
		worker.Begin()
		s := worker.Alloc()
		worker.Retire(s)
		worker.End()
	}
	if m.clock.Load() > e+1 {
		t.Fatalf("epoch advanced %d -> %d past a stalled thread", e, m.clock.Load())
	}
	if got := limboSize(worker); got < 400 {
		t.Fatalf("limbo should accumulate behind the stalled thread, got %d", got)
	}
	if m.Stats().Recycled > 100 {
		t.Fatalf("reclamation should be (nearly) frozen, recycled %d", m.Stats().Recycled)
	}
	// Unstall: reclamation resumes.
	stalled.End()
	for i := 0; i < 20; i++ {
		worker.Begin()
		worker.End()
	}
	if m.Stats().Recycled < 400 {
		t.Fatalf("reclamation did not resume: recycled = %d", m.Stats().Recycled)
	}
}

// No slot may be freed while an operation that could have seen it is
// running: stress with an invariant cell per slot.
func TestNoEarlyFreeUnderChurn(t *testing.T) {
	const threads = 6
	m := newEBR(t, sizing.Config{MaxThreads: threads, Capacity: 4096, OpsPerScan: 16})
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := m.Guard(id)
			for i := 0; i < 20000; i++ {
				g.Begin()
				s := g.Alloc()
				n := g.View.At(s)
				n.key.Store(uint64(s) ^ 0xABCD)
				// While this op runs, the slot we retired is unreachable to
				// others but must stay intact for us.
				g.Retire(s)
				if got := n.key.Load(); got != uint64(s)^0xABCD {
					t.Errorf("retired slot mutated during its grace period: %#x", got)
					return
				}
				g.End()
			}
		}(id)
	}
	wg.Wait()
	if m.Stats().Recycled == 0 {
		t.Fatal("no recycling under churn")
	}
}

func TestStatsAggregation(t *testing.T) {
	m := newEBR(t, sizing.Config{MaxThreads: 1, Capacity: 32})
	g := m.Guard(0)
	g.Begin()
	s := g.Alloc()
	g.Retire(s)
	g.End()
	st := m.Stats()
	if st.Allocs != 1 || st.Retires != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Phases != m.clock.Load() {
		t.Fatalf("Phases = %d, want the epoch %d", st.Phases, m.clock.Load())
	}
}
