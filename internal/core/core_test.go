package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arena"
)

// node is a minimal test node: all shared fields atomic, as required of
// clients of the scheme.
type node struct {
	key  atomic.Uint64
	next atomic.Uint64
}

func resetNode(n *node) {
	n.key.Store(0)
	n.next.Store(0)
}

func newMgr(t testing.TB, cfg Config) *Manager[node] {
	t.Helper()
	return NewManager[node](cfg, resetNode)
}

func TestAllocZeroesAndCounts(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 1, Capacity: 64, OwnerHPs: 3})
	th := m.Thread(0)
	s := th.Alloc()
	n := th.Node(s)
	n.key.Store(42)
	n.next.Store(7)
	th.Retire(s)
	th.FlushRetired()
	// Two recycling passes: one to swap the retired block in, one not needed —
	// the slot becomes allocatable after the next phase.
	seen := map[uint32]bool{}
	for i := 0; i < m.Capacity(); i++ {
		s2 := th.Alloc()
		if seen[s2] {
			t.Fatalf("slot %d handed out twice without retire", s2)
		}
		seen[s2] = true
		if s2 == s {
			if n.key.Load() != 0 || n.next.Load() != 0 {
				t.Fatal("recycled slot was not zeroed on allocation")
			}
		}
	}
	if !seen[s] {
		t.Fatal("retired slot never came back through the pipeline")
	}
	st := m.Stats()
	if st.Allocs != uint64(m.Capacity())+1 {
		t.Fatalf("Allocs = %d, want %d", st.Allocs, m.Capacity()+1)
	}
	if st.Retires != 1 {
		t.Fatalf("Retires = %d", st.Retires)
	}
	if st.Phases == 0 {
		t.Fatal("expected at least one phase")
	}
}

func TestRetiredSlotNotRecycledSamePhase(t *testing.T) {
	// An object must never be reclaimed in the phase it was unlinked (§2).
	m := newMgr(t, Config{MaxThreads: 1, Capacity: 8, LocalPool: 2, OwnerHPs: 0})
	th := m.Thread(0)
	s := th.Alloc()
	gen := m.Arena().Gen(s)
	th.Retire(s)
	th.FlushRetired()
	// No recycling has run; generation must be untouched.
	if m.Arena().Gen(s) != gen {
		t.Fatal("slot recycled before any phase change")
	}
}

// Thread.Node indexes the manager's contiguous node slice, so for every
// slot it must reach the node the arena's chunk directory reaches; the
// capacity spans two chunks.
func TestNodeMatchesArena(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 2, Capacity: arena.ChunkSize + 1000, OwnerHPs: 3})
	a := m.Arena()
	if a.Limit() != uint32(m.Capacity()) {
		t.Fatalf("arena reserved %d slots, capacity %d", a.Limit(), m.Capacity())
	}
	for id := 0; id < m.MaxThreads(); id++ {
		th := m.Thread(id)
		for s := uint32(0); s < a.Limit(); s++ {
			if th.Node(s) != a.At(s) {
				t.Fatalf("thread %d slot %d: Node %p, Arena().At %p", id, s, th.Node(s), a.At(s))
			}
		}
	}
}

// A drain bumps a recycled slot's generation through the thread's slice;
// the bump must show in Arena().Gen, the oracle tests read. A slot that is
// never retired keeps generation 0.
func TestDrainBumpsArenaGen(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 1, Capacity: 8, LocalPool: 2})
	th := m.Thread(0)
	s, kept := th.Alloc(), th.Alloc()
	th.Retire(s)
	if left := m.Quiesce(); left != 0 {
		t.Fatalf("Quiesce left %d slots", left)
	}
	if st := m.Stats(); st.Recycled != 1 {
		t.Fatalf("Recycled = %d, want 1", st.Recycled)
	}
	if g := m.Arena().Gen(s); g != 1 {
		t.Fatalf("recycled slot's Arena().Gen = %d, want 1", g)
	}
	if g := m.Arena().Gen(kept); g != 0 {
		t.Fatalf("live slot's Arena().Gen = %d, want 0", g)
	}
}

func TestWarningSetOncePerPhase(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 2, Capacity: 64, OwnerHPs: 0})
	th := m.Thread(0)
	if th.Warning() {
		t.Fatal("fresh thread has warning set")
	}
	m.InjectWarnings(2)
	if !th.Warning() {
		t.Fatal("warning not set")
	}
	if !th.Check() {
		t.Fatal("Check must report restart when warning set")
	}
	if th.Check() {
		t.Fatal("Check cleared the bit; second call must pass")
	}
	// Same phase again: the phase stamp suppresses the re-set.
	m.InjectWarnings(2)
	if th.Warning() {
		t.Fatal("warning re-set for an already-stamped phase")
	}
	// New phase: set again.
	m.InjectWarnings(4)
	if !th.Warning() {
		t.Fatal("warning not set for a new phase")
	}
}

func TestWarningByStoreAblation(t *testing.T) {
	m := NewManager[node](Config{MaxThreads: 1, Capacity: 64, WarningByStore: true}, resetNode)
	th := m.Thread(0)
	m.InjectWarnings(2)
	if !th.Check() {
		t.Fatal("warning not delivered")
	}
	// The naive broadcast re-warns even within the same phase — the extra
	// restarts the Appendix E once-per-phase CAS avoids.
	m.InjectWarnings(2)
	if !th.Warning() {
		t.Fatal("naive store mode must re-warn an acknowledged thread")
	}
}

func TestHazardPointerBlocksRecycle(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 2, Capacity: 256, LocalPool: 4, OwnerHPs: 3})
	worker, guard := m.Thread(0), m.Thread(1)

	s := worker.Alloc()
	gen := m.Arena().Gen(s)
	// Thread 1 protects the slot as a CAS target (Algorithm 2 prologue).
	if guard.ProtectCAS(arena.MakePtr(s), arena.NilPtr, arena.NilPtr) {
		t.Fatal("unexpected restart")
	}
	worker.Retire(s)
	worker.FlushRetired()

	// Churn enough allocations to force several phases.
	for i := 0; i < 4*m.Capacity(); i++ {
		x := worker.Alloc()
		worker.Retire(x)
	}
	worker.FlushRetired()
	if m.Arena().Gen(s) != gen {
		t.Fatal("hazard-pointer-protected slot was recycled")
	}
	st := m.Stats()
	if st.ReRetired == 0 {
		t.Fatal("protected slot should have been re-retired at least once")
	}

	// Release the protection; the slot must eventually recycle.
	guard.ClearCAS()
	for i := 0; i < 4*m.Capacity(); i++ {
		x := worker.Alloc()
		worker.Retire(x)
	}
	worker.FlushRetired()
	if m.Arena().Gen(s) == gen {
		t.Fatal("slot never recycled after hazard pointer cleared")
	}
}

func TestOwnerHPBlocksRecycle(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 2, Capacity: 128, LocalPool: 4, OwnerHPs: 6})
	worker, guard := m.Thread(0), m.Thread(1)
	s := worker.Alloc()
	gen := m.Arena().Gen(s)
	guard.SetOwnerHP(4, arena.MakePtr(s).Mark()) // marked pointers are unmarked before publication
	if guard.SealGenerator() {
		t.Fatal("unexpected restart")
	}
	worker.Retire(s)
	worker.FlushRetired()
	for i := 0; i < 4*m.Capacity(); i++ {
		x := worker.Alloc()
		worker.Retire(x)
	}
	worker.FlushRetired()
	if m.Arena().Gen(s) != gen {
		t.Fatal("owner-HP-protected slot was recycled")
	}
	guard.ClearOwnerHPs()
	for i := 0; i < 4*m.Capacity(); i++ {
		x := worker.Alloc()
		worker.Retire(x)
	}
	if m.Arena().Gen(s) == gen {
		t.Fatal("slot never recycled after owner HPs cleared")
	}
}

// TestPackedHazardPointersBlockRecycle: two hazard pointers share each
// word, so a slot published in the high half must protect exactly as one
// in the low half — write and owner HPs alike, up to the largest index a
// half carries (NoSlot-1, published as 0xffffffff) — and clearing one
// half must leave its neighbour published.
func TestPackedHazardPointersBlockRecycle(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 2, Capacity: 256, LocalPool: 4, OwnerHPs: 3})
	worker, guard := m.Thread(0), m.Thread(1)
	lo, hi, own0, own1 := worker.Alloc(), worker.Alloc(), worker.Alloc(), worker.Alloc()
	top := arena.NoSlot - 1
	if guard.ProtectCAS(arena.MakePtr(lo), arena.MakePtr(hi), arena.MakePtr(top)) {
		t.Fatal("unexpected restart")
	}
	guard.SetOwnerHP(0, arena.MakePtr(own0))
	guard.SetOwnerHP(1, arena.MakePtr(own1).Mark())
	guard.SetOwnerHP(2, arena.MakePtr(top))
	if guard.SealGenerator() {
		t.Fatal("unexpected restart")
	}
	if n := guard.PublishedHPs(); n != 6 {
		t.Fatalf("PublishedHPs = %d, want 6", n)
	}
	hp := worker.snapshotHPs()
	for _, s := range []uint32{lo, hi, own0, own1, top} {
		if !hp.Contains(s) {
			t.Fatalf("snapshot misses published slot %#x", s)
		}
	}
	if hp.Contains(top - 1) {
		t.Fatal("snapshot contains a slot nobody published")
	}

	gens := map[uint32]uint32{}
	for _, s := range []uint32{lo, hi, own0, own1} {
		gens[s] = m.Arena().Gen(s)
		worker.Retire(s)
	}
	churn := func() {
		for i := 0; i < 4*m.Capacity(); i++ {
			worker.Retire(worker.Alloc())
		}
		worker.FlushRetired()
	}
	recycled := func(s uint32) bool { return m.Arena().Gen(s) != gens[s] }
	churn()
	for s := range gens {
		if recycled(s) {
			t.Fatalf("slot %d recycled while published", s)
		}
	}
	guard.SetOwnerHP(1, arena.NilPtr)
	churn()
	if !recycled(own1) || recycled(own0) {
		t.Fatalf("after clearing the high owner half: own1 recycled=%v (want true), own0 recycled=%v (want false)",
			recycled(own1), recycled(own0))
	}
	guard.ClearCAS()
	guard.ClearOwnerHPs()
	if n := guard.PublishedHPs(); n != 0 {
		t.Fatalf("PublishedHPs after clearing = %d", n)
	}
	churn()
	for s := range gens {
		if !recycled(s) {
			t.Fatalf("slot %d never recycled after its hazard pointer was cleared", s)
		}
	}
}

func TestProtectCASRestartsOnWarning(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 1, Capacity: 64, OwnerHPs: 3})
	th := m.Thread(0)
	m.InjectWarnings(2)
	if !th.ProtectCAS(arena.MakePtr(1), arena.MakePtr(2), arena.NilPtr) {
		t.Fatal("ProtectCAS must demand a restart while warned")
	}
	for i := 0; i < WriteHPs; i++ {
		if w := th.WarnWord(); w&0xff != 0 {
			t.Fatal("warning not cleared by restart path")
		}
	}
	// HPs must be clear after the restart path.
	hp := map[uint32]struct{}{}
	for i := range th.hps {
		if w := th.hps[i].Load(); w != 0 {
			hp[uint32(w-1)] = struct{}{}
		}
	}
	if len(hp) != 0 {
		t.Fatalf("restart left hazard pointers set: %v", hp)
	}
	if !th.ProtectCAS(arena.MakePtr(1), arena.NilPtr, arena.NilPtr) == false {
		t.Fatal("second ProtectCAS should pass")
	}
	th.ClearCAS()
}

// Slot conservation: after arbitrary alloc/retire traffic and full drains,
// every slot is accounted for exactly once across pools, local blocks and
// the live set. This is the test for the two documented deviations (freeze
// precondition, re-retire at newer phase): neither may leak slots.
func TestRecyclingNeverLeaks(t *testing.T) {
	const threads = 3
	m := newMgr(t, Config{MaxThreads: threads, Capacity: 8 * threads * 8, LocalPool: 8, OwnerHPs: 0})
	rng := rand.New(rand.NewSource(1))
	live := map[uint32]bool{}
	var liveList []uint32

	// Drive all thread contexts from one goroutine, interleaving randomly —
	// this creates laggard localVer values deterministically.
	for step := 0; step < 20000; step++ {
		th := m.Thread(rng.Intn(threads))
		if len(liveList) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(liveList))
			s := liveList[i]
			liveList[i] = liveList[len(liveList)-1]
			liveList = liveList[:len(liveList)-1]
			delete(live, s)
			th.Retire(s)
		} else if len(liveList) < m.Capacity()/4 {
			s := th.Alloc()
			if live[s] {
				t.Fatalf("slot %d double-allocated", s)
			}
			live[s] = true
			liveList = append(liveList, s)
		}
	}
	total := len(liveList)
	for i := 0; i < threads; i++ {
		m.Thread(i).FlushRetired()
		total += m.Thread(i).LocalCounts()
	}
	ready, retire, processing := m.PoolCounts()
	total += ready + retire + processing
	if total != m.Capacity() {
		t.Fatalf("slot leak: accounted %d of %d (ready=%d retire=%d processing=%d live=%d)",
			total, m.Capacity(), ready, retire, processing, len(liveList))
	}
}

// The sharded pools must preserve slot conservation exactly as the flat
// ones did: same interleaved traffic as TestRecyclingNeverLeaks, but with
// four shards forced (the 1-CPU default would collapse to one) so laggard
// threads drain shards frozen at mixed versions and allocation steals
// across shards.
func TestShardedRecyclingNeverLeaks(t *testing.T) {
	const threads = 3
	m := newMgr(t, Config{MaxThreads: threads, Capacity: 8 * threads * 8, LocalPool: 8, OwnerHPs: 0, Shards: 4})
	if m.Shards() != 4 {
		t.Fatalf("Shards = %d, want 4", m.Shards())
	}
	rng := rand.New(rand.NewSource(2))
	live := map[uint32]bool{}
	var liveList []uint32
	for step := 0; step < 20000; step++ {
		th := m.Thread(rng.Intn(threads))
		if len(liveList) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(liveList))
			s := liveList[i]
			liveList[i] = liveList[len(liveList)-1]
			liveList = liveList[:len(liveList)-1]
			delete(live, s)
			th.Retire(s)
		} else if len(liveList) < m.Capacity()/4 {
			s := th.Alloc()
			if live[s] {
				t.Fatalf("slot %d double-allocated", s)
			}
			live[s] = true
			liveList = append(liveList, s)
		}
	}
	total := len(liveList)
	for i := 0; i < threads; i++ {
		m.Thread(i).FlushRetired()
		total += m.Thread(i).LocalCounts()
	}
	ready, retire, processing := m.PoolCounts()
	total += ready + retire + processing
	if total != m.Capacity() {
		t.Fatalf("slot leak: accounted %d of %d (ready=%d retire=%d processing=%d live=%d)",
			total, m.Capacity(), ready, retire, processing, len(liveList))
	}
	if m.ReadySteals() == 0 {
		t.Fatal("expected ready-pool steals with 3 threads on 4 shards")
	}
}

// Regression test for the lost-warning race: setWarnings used to attempt
// its CAS once per thread, so a concurrent Check (which CASes the warning
// bit off) could make that attempt fail and leave the thread unstamped and
// unwarned for the phase — a reclamation safety violation. The fixed loop
// retries until the thread's stamp equals the phase, so after every
// InjectWarnings(p) the stamp must read exactly p no matter how Check
// interleaves.
func TestSetWarningsConcurrentCheckNeverLoses(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 1, Capacity: 64, OwnerHPs: 0})
	th := m.Thread(0)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				th.Check()
			}
		}
	}()
	for p := uint32(2); p <= 4000; p += 2 {
		m.InjectWarnings(p)
		if got := uint32(th.WarnWord() >> 8); got != p {
			close(done)
			wg.Wait()
			t.Fatalf("after InjectWarnings(%d): stamp = %d — warning lost to concurrent Check", p, got)
		}
	}
	close(done)
	wg.Wait()
}

// Concurrent ownership: a slot handed out by Alloc belongs to exactly one
// thread until retired, even under heavy recycling churn.
func TestConcurrentAllocRetireOwnership(t *testing.T) {
	const threads = 8
	m := newMgr(t, Config{MaxThreads: threads, Capacity: threads * 300, LocalPool: 16, OwnerHPs: 0})
	owner := make([]atomic.Int32, m.Capacity()+1024)
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := m.Thread(id)
			held := make([]uint32, 0, 64)
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < 30000; i++ {
				if len(held) < 32 && rng.Intn(3) > 0 {
					s := th.Alloc()
					if !owner[s].CompareAndSwap(0, int32(id)+1) {
						t.Errorf("slot %d allocated while owned by thread %d", s, owner[s].Load()-1)
						return
					}
					held = append(held, s)
				} else if len(held) > 0 {
					s := held[len(held)-1]
					held = held[:len(held)-1]
					if !owner[s].CompareAndSwap(int32(id)+1, 0) {
						t.Errorf("slot %d ownership corrupted", s)
						return
					}
					th.Retire(s)
				}
			}
			for _, s := range held {
				owner[s].CompareAndSwap(int32(id)+1, 0)
				th.Retire(s)
			}
			th.FlushRetired()
		}(id)
	}
	wg.Wait()
	st := m.Stats()
	if st.Allocs == 0 || st.Recycled == 0 {
		t.Fatalf("expected churn, got %+v", st)
	}
}

// Sharded pools under real concurrency: goroutines churn alloc/retire on
// a 4-shard manager, then Quiesce must account for every slot (nothing
// stranded on a shard the swap protocol missed).
func TestShardedConcurrentChurnQuiesces(t *testing.T) {
	const threads = 4
	m := newMgr(t, Config{MaxThreads: threads, Capacity: threads * 300, LocalPool: 16, OwnerHPs: 0, Shards: 4})
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := m.Thread(id)
			for i := 0; i < 20000; i++ {
				th.Retire(th.Alloc())
			}
			th.FlushRetired()
		}(id)
	}
	wg.Wait()
	if left := m.Quiesce(); left != 0 {
		t.Fatalf("Quiesce left %d slots unreclaimed across shards", left)
	}
	st := m.Stats()
	if st.Recycled == 0 || st.Phases == 0 {
		t.Fatalf("expected recycling churn, got %+v", st)
	}
}

// The sharded hot path must stay zero-alloc, including steals: with one
// thread homed on shard 0 of 4, the round-robin pre-chop leaves most ready
// blocks on shards 1-3, so refills exercise the steal probe.
func TestShardedOpsDoNotAllocate(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 1, Capacity: 1 << 12, LocalPool: 32, OwnerHPs: 0, Shards: 4})
	th := m.Thread(0)
	// Hold half the capacity live: the pre-chop dealt ready blocks round-
	// robin across the shards, so this burst outruns home shard 0's quarter
	// and forces refills through the steal probe.
	held := make([]uint32, 0, m.Capacity()/2)
	for i := 0; i < cap(held); i++ {
		held = append(held, th.Alloc())
	}
	if m.ReadySteals() == 0 {
		t.Fatal("allocation burst past the home shard never stole")
	}
	for _, s := range held {
		th.Retire(s)
	}
	th.FlushRetired()
	warm := func() {
		th.Retire(th.Alloc())
		th.Recycling()
	}
	for i := 0; i < 256; i++ {
		warm()
	}
	if avg := testing.AllocsPerRun(500, warm); avg > 0.05 {
		t.Fatalf("sharded alloc/retire/recycle allocates %.2f objects/run", avg)
	}
}

// Lock freedom of reclamation: a thread parked while holding hazard
// pointers must not stop other threads from recycling unrelated slots.
func TestStuckThreadDoesNotBlockReclamation(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 2, Capacity: 128, LocalPool: 4, OwnerHPs: 3})
	stuck, worker := m.Thread(0), m.Thread(1)
	pin := stuck.Alloc()
	if stuck.ProtectCAS(arena.MakePtr(pin), arena.NilPtr, arena.NilPtr) {
		t.Fatal("unexpected restart")
	}
	// stuck never runs again. The worker must still be able to allocate
	// far more than the capacity, proving recycling proceeds.
	for i := 0; i < 10*m.Capacity(); i++ {
		s := worker.Alloc()
		worker.Retire(s)
	}
	if m.Stats().Recycled == 0 {
		t.Fatal("no recycling happened with a stuck thread present")
	}
}

func TestPhaseAdvancesVersionByTwo(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 1, Capacity: 32, LocalPool: 4, OwnerHPs: 0})
	th := m.Thread(0)
	if m.Phase() != 0 {
		t.Fatalf("initial phase = %d", m.Phase())
	}
	for i := 0; i < 10*m.Capacity(); i++ {
		s := th.Alloc()
		th.Retire(s)
	}
	if m.Phase() == 0 || m.Phase()%2 != 0 {
		t.Fatalf("phase = %d, want positive even", m.Phase())
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}
	cfg.fill()
	if cfg.MaxThreads != 1 || cfg.LocalPool == 0 || cfg.AllocSpinLimit == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.Capacity < 2*cfg.MaxThreads*cfg.LocalPool {
		t.Fatalf("capacity floor not applied: %+v", cfg)
	}
}

func TestAllocStarvationPanics(t *testing.T) {
	m := NewManager[node](Config{
		MaxThreads: 1, Capacity: 8, LocalPool: 4, AllocSpinLimit: 64,
	}, resetNode)
	th := m.Thread(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected starvation panic")
		}
	}()
	for i := 0; i < 10000; i++ {
		th.Alloc() // never retire: the pipeline must run dry and panic
	}
}

func TestStatsAggregation(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 2, Capacity: 64, LocalPool: 4, OwnerHPs: 0})
	a, b := m.Thread(0), m.Thread(1)
	s1 := a.Alloc()
	s2 := b.Alloc()
	a.Retire(s1)
	b.Retire(s2)
	st := m.Stats()
	if st.Allocs != 2 || st.Retires != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPhasePausesRecorded(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 1, Capacity: 64, LocalPool: 8, OwnerHPs: 0})
	th := m.Thread(0)
	for i := 0; i < 500; i++ {
		s := th.Alloc()
		th.Retire(s)
	}
	h := m.PhasePauses()
	if h.Count() == 0 {
		t.Fatal("no Recycling pauses recorded under churn")
	}
	if h.Mean() <= 0 || h.Max() < h.Mean() {
		t.Fatalf("pause stats inconsistent: mean=%v max=%v", h.Mean(), h.Max())
	}
}

func TestQuiesceRecyclesEverything(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 2, Capacity: 256, LocalPool: 8, OwnerHPs: 3})
	th := m.Thread(0)
	slots := make([]uint32, 0, 50)
	for i := 0; i < 50; i++ {
		slots = append(slots, th.Alloc())
	}
	gens := make([]uint32, len(slots))
	for i, s := range slots {
		gens[i] = m.Arena().Gen(s)
		th.Retire(s)
	}
	if left := m.Quiesce(); left != 0 {
		t.Fatalf("Quiesce left %d slots unreclaimed with no hazard pointers", left)
	}
	for i, s := range slots {
		if m.Arena().Gen(s) == gens[i] {
			t.Fatalf("slot %d not recycled by Quiesce", s)
		}
	}
}

func TestQuiesceRespectsHazardPointers(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 2, Capacity: 256, LocalPool: 8, OwnerHPs: 3})
	th, guard := m.Thread(0), m.Thread(1)
	pinned := th.Alloc()
	guard.ProtectCAS(arena.MakePtr(pinned), arena.NilPtr, arena.NilPtr)
	th.Retire(pinned)
	if left := m.Quiesce(); left != 1 {
		t.Fatalf("Quiesce = %d, want 1 pinned slot", left)
	}
	guard.ClearCAS()
	if left := m.Quiesce(); left != 0 {
		t.Fatalf("Quiesce after release = %d, want 0", left)
	}
}
