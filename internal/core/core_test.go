package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arena"
	"repro/internal/lease"
	"repro/internal/pools"
	"repro/internal/smr"
)

// node is a minimal test node: all shared fields atomic, as required of
// clients of the scheme.
type node struct {
	key  atomic.Uint64
	next arena.Link
}

func resetNode(n *node) {
	n.key.Store(0)
	n.next.Store(arena.NilPtr)
}

func newMgr(t testing.TB, cfg Config) *Manager[node] {
	t.Helper()
	return NewManager[node](cfg, resetNode)
}

// recycles installs a generation counter as m's recycle hook, before any
// thread runs: rec.Gen(slot) counts the drains that recycled slot.
func recycles[T any](m *Manager[T]) *smr.Gens {
	rec := new(smr.Gens)
	m.OnRecycle(rec.Bump)
	return rec
}

func TestAllocZeroesAndCounts(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 1, Capacity: 64, OwnerHPs: 3})
	th := m.Thread(0)
	s := th.Alloc()
	n := th.Node(s)
	n.key.Store(42)
	n.next.Store(arena.MakePtr(7))
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
			if n.key.Load() != 0 || n.next.Load() != arena.NilPtr {
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
	rec := recycles(m)
	th := m.Thread(0)
	s := th.Alloc()
	gen := rec.Gen(s)
	th.Retire(s)
	th.FlushRetired()
	// No recycling has run; generation must be untouched.
	if rec.Gen(s) != gen {
		t.Fatal("slot recycled before any phase change")
	}
}

// Thread.Node goes through the thread's view, so for every slot it must
// reach the node Arena().At reaches; the capacity spans two chunks.
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

// Every slot an OA manager hands out, across recycling phases, lies
// inside its threads' view's flat region, so Thread.Node never takes the
// chunk directory. Checked at a capacity that is not a chunk multiple and
// at one above arena.ChunkSize.
func TestSlotsStayInFlatRegion(t *testing.T) {
	for _, capacity := range []int{3000, arena.ChunkSize + 1000} {
		m := newMgr(t, Config{MaxThreads: 1, Capacity: capacity, LocalPool: 16})
		th := m.Thread(0)
		// The flat region is unexported; reflection reads its length.
		flat := uint32(reflect.ValueOf(th.view).FieldByName("nodes").Len())
		seen := make(map[uint32]bool, capacity)
		for i := 0; i < 4*capacity; i++ {
			s := th.Alloc()
			if s >= flat {
				t.Fatalf("capacity %d: Alloc handed out slot %d, outside the flat region of %d", capacity, s, flat)
			}
			seen[s] = true
			th.Retire(s)
		}
		if len(seen) != capacity {
			t.Fatalf("capacity %d: %d distinct slots handed out, want every one", capacity, len(seen))
		}
		if st := m.Stats(); st.Recycled == 0 {
			t.Fatalf("capacity %d: no slot was recycled", capacity)
		}
	}
}

// A manager's block pool stays inside the flat region of its block
// arena: eight contexts leased and released by eight goroutines churn
// slots through blocks of 16, flush partial retire blocks and drive phase
// after phase, and the arena never hands out a block past
// pools.BlockBound (DESIGN.md §4, "Block bound"), so it never grows.
func TestBlockPoolStaysInBound(t *testing.T) {
	const threads, localPool, capacity = 8, 16, 4096
	m := newMgr(t, Config{MaxThreads: threads, Capacity: capacity, LocalPool: localPool, OwnerHPs: 3})
	blocks := m.Blocks().Arena()
	// The flat region is unexported; reflection reads its length.
	flat := uint32(reflect.ValueOf(blocks.View()).FieldByName("nodes").Len())
	bound := uint32(pools.BlockBound(capacity, localPool, threads))
	const rounds = 200
	var wg sync.WaitGroup
	for w := range threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var live []uint32 // slots this goroutine holds, across leases
			for r := 0; r < rounds; r++ {
				th, err := m.AcquireThread()
				for errors.Is(err, lease.ErrNoFreeSessions) {
					// One scan can miss a slot freed behind it while the
					// slots ahead are leased: a load condition, so retry.
					runtime.Gosched()
					th, err = m.AcquireThread()
				}
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 64; i++ {
					live = append(live, th.Alloc())
					if len(live) > 24 || rng.Intn(3) == 0 {
						j := rng.Intn(len(live))
						th.Retire(live[j])
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
					}
				}
				if rng.Intn(4) == 0 {
					th.FlushRetired()
				}
				m.ReleaseThread(th)
			}
		}()
	}
	wg.Wait()
	if m.Phase()/2 < 10 {
		t.Fatalf("only %d phases ran", m.Phase()/2)
	}
	m.Quiesce()
	// Limit only grows, so its final value is the peak.
	if l := blocks.Limit(); l > flat || blocks.Cap() != flat {
		t.Fatalf("block arena handed out %d blocks and backs %d: past its flat region of %d", l, blocks.Cap(), flat)
	}
	if flat != bound {
		t.Fatalf("block arena's flat region holds %d blocks, want the bound %d", flat, bound)
	}
	t.Logf("%d phases; blocks handed out %d of the bound %d (%d full blocks)",
		m.Phase()/2, blocks.Limit(), bound, (capacity+localPool-1)/localPool)
}

// A drain reports each slot it recycles to the manager's recycle hook,
// once per recycle, and the hook is where tests read a generation. A
// slot that is never retired is never reported.
func TestDrainReportsRecycles(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 1, Capacity: 8, LocalPool: 2})
	rec := recycles(m)
	th := m.Thread(0)
	s, kept := th.Alloc(), th.Alloc()
	th.Retire(s)
	if left := m.Quiesce(); left != 0 {
		t.Fatalf("Quiesce left %d slots", left)
	}
	if st := m.Stats(); st.Recycled != 1 {
		t.Fatalf("Recycled = %d, want 1", st.Recycled)
	}
	if g := rec.Gen(s); g != 1 {
		t.Fatalf("recycled slot's generation = %d, want 1", g)
	}
	if g := rec.Gen(kept); g != 0 {
		t.Fatalf("live slot's generation = %d, want 0", g)
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
	rec := recycles(m)
	worker, guard := m.Thread(0), m.Thread(1)

	s := worker.Alloc()
	gen := rec.Gen(s)
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
	if rec.Gen(s) != gen {
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
	if rec.Gen(s) == gen {
		t.Fatal("slot never recycled after hazard pointer cleared")
	}
}

func TestOwnerHPBlocksRecycle(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 2, Capacity: 128, LocalPool: 4, OwnerHPs: 6})
	rec := recycles(m)
	worker, guard := m.Thread(0), m.Thread(1)
	s := worker.Alloc()
	gen := rec.Gen(s)
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
	if rec.Gen(s) != gen {
		t.Fatal("owner-HP-protected slot was recycled")
	}
	guard.ClearOwnerHPs()
	for i := 0; i < 4*m.Capacity(); i++ {
		x := worker.Alloc()
		worker.Retire(x)
	}
	if rec.Gen(s) == gen {
		t.Fatal("slot never recycled after owner HPs cleared")
	}
}

// TestHPWidth: a manager packs its hazard-pointer fields at 21 bits while
// every slot+1 fits them, so up to 2²¹−1 slots, and at 32 from 2²¹ on.
// The choice is checked without building either arena. At both widths a
// triple of the largest fields survives packing, and a narrow triple's
// second word is 0, which is what lets publish skip it.
func TestHPWidth(t *testing.T) {
	for _, c := range []struct {
		capacity int
		want     uint
	}{{1, narrowBits}, {1<<narrowBits - 1, narrowBits}, {1 << narrowBits, 32}, {arena.MaxSlots, 32}} {
		if got := hpWidth(c.capacity); got != c.want {
			t.Errorf("hpWidth(%d) = %d, want %d", c.capacity, got, c.want)
		}
	}
	for _, w := range []uint{narrowBits, 32} {
		th := &Thread[node]{hpw: w}
		top := uint64(1)<<w - 1
		for _, h := range [][3]uint64{{top, top, top}, {1, 0, top}, {top, 1, 0}, {0, top, 1}} {
			a, b := th.pack(h[0], h[1], h[2])
			if w == narrowBits && b != 0 {
				t.Errorf("width %d: pack%v left %#x in the second word", w, h, b)
			}
			if got := unpack(a, b, w); got != h {
				t.Errorf("width %d: pack%v = %#x, %#x unpacks to %v", w, h, a, b, got)
			}
		}
	}
}

// TestPackedHazardPointersBlockRecycle: a triple of hazard pointers is one
// word at the narrow width (21-bit fields) and two at the wide one (32-bit
// fields, forced here through ForceWideHPs). Each of the three write fields
// and the three owner fields must keep its slot out of a drain —
// re-retired, not recycled — and clearing one field must leave the others
// published. The narrow manager holds 2²¹−1 slots, so its largest slot,
// 2²¹−2, fills every bit of the owner triple's last field (bits 42–62).
// The wide snapshot must decode the largest index a 32-bit field carries,
// NoSlot−1 (published as 0xffffffff), which no arena this small hands out.
func TestPackedHazardPointersBlockRecycle(t *testing.T) {
	for _, c := range []struct {
		name     string
		capacity int
		width    uint
	}{
		{"narrow", 1<<narrowBits - 1, narrowBits},
		{"wide", 256, 32},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Empty nodes keep the narrow arena's 2²¹−1 slots free of memory.
			m := NewManager[struct{}](Config{MaxThreads: 2, Capacity: c.capacity, OwnerHPs: 3}, func(*struct{}) {})
			if c.width == 32 {
				m.ForceWideHPs()
			}
			rec := recycles(m)
			worker, guard := m.Thread(0), m.Thread(1)
			if guard.hpw != c.width {
				t.Fatalf("field width %d, want %d", guard.hpw, c.width)
			}
			// slots[0..2] go in the write fields, slots[3..5] in the owner
			// fields. The first Alloc pops the capacity's largest slot, and
			// it goes in the last owner field.
			var slots [6]uint32
			for i := len(slots) - 1; i >= 0; i-- {
				slots[i] = worker.Alloc()
			}
			if top := uint32(m.Capacity() - 1); slots[5] != top {
				t.Fatalf("first Alloc = %d, want the largest slot %d", slots[5], top)
			}
			ptr := func(f int) arena.Ptr { return arena.MakePtr(slots[f]) }
			if guard.ProtectCAS(ptr(0), ptr(1), ptr(2)) {
				t.Fatal("unexpected restart")
			}
			guard.SetOwnerHP(0, ptr(3))
			guard.SetOwnerHP(1, ptr(4).Mark()) // marked pointers are unmarked before publication
			guard.SetOwnerHP(2, ptr(5))
			if n := guard.PublishedHPs(); n != 6 {
				t.Fatalf("PublishedHPs = %d, want 6", n)
			}
			hp := worker.snapshotHPs()
			for _, s := range slots {
				if !hp.Contains(s) {
					t.Fatalf("snapshot misses published slot %#x", s)
				}
			}
			if hp.Len() != len(slots) {
				t.Fatalf("snapshot holds %d slots, want the %d published", hp.Len(), len(slots))
			}

			for _, s := range slots {
				worker.Retire(s)
			}
			if left := m.Quiesce(); left != len(slots) {
				t.Fatalf("Quiesce withheld %d slots, want all %d published", left, len(slots))
			}
			if st := m.Stats(); st.ReRetired < uint64(len(slots)) {
				t.Fatalf("ReRetired = %d, want every published slot re-retired", st.ReRetired)
			}
			// Clear one field at a time: its slot, and only its slot, is
			// recycled by the next drain.
			for f := range slots {
				switch f {
				case 0, 1, 2:
					guard.Check() // acknowledge the drains' warning: it would restart the barrier
					ops := [3]arena.Ptr{ptr(0), ptr(1), ptr(2)}
					for g := 0; g <= f; g++ {
						ops[g] = arena.NilPtr
					}
					if guard.ProtectCAS(ops[0], ops[1], ops[2]) {
						t.Fatal("unexpected restart")
					}
				default:
					guard.SetOwnerHP(f-3, arena.NilPtr)
				}
				if n := guard.PublishedHPs(); n != len(slots)-1-f {
					t.Fatalf("field %d cleared: PublishedHPs = %d, want %d", f, n, len(slots)-1-f)
				}
				if left := m.Quiesce(); left != len(slots)-1-f {
					t.Fatalf("field %d cleared: Quiesce withheld %d slots, want %d", f, left, len(slots)-1-f)
				}
				for g, s := range slots {
					if got, want := rec.Gen(s), map[bool]uint32{true: 1}[g <= f]; got != want {
						t.Fatalf("field %d cleared: slot of field %d recycled %d times, want %d", f, g, got, want)
					}
				}
			}

			if c.width == 32 {
				top := arena.MakePtr(arena.NoSlot - 1)
				guard.Check()
				if guard.ProtectCAS(arena.NilPtr, arena.NilPtr, top) {
					t.Fatal("unexpected restart")
				}
				guard.SetOwnerHP(2, top)
				worker.snapValid = false // the snapshot is cached per phase
				if hp := worker.snapshotHPs(); !hp.Contains(arena.NoSlot-1) || hp.Len() != 1 {
					t.Fatalf("snapshot of NoSlot-1 in two 32-bit fields: contains %v, %d slots; want true and 1",
						hp.Contains(arena.NoSlot-1), hp.Len())
				}
			}
			guard.ClearCAS()
			guard.ClearOwnerHPs()
			if n := guard.PublishedHPs(); n != 0 {
				t.Fatalf("PublishedHPs after clearing = %d", n)
			}
		})
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

// Goroutines churn alloc/retire, racing each other through phase swaps,
// then Quiesce must account for every slot (nothing stranded by a swap
// some helper finished).
func TestConcurrentChurnQuiesces(t *testing.T) {
	const threads = 4
	m := newMgr(t, Config{MaxThreads: threads, Capacity: threads * 300, LocalPool: 16, OwnerHPs: 0})
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
		t.Fatalf("Quiesce left %d slots unreclaimed", left)
	}
	st := m.Stats()
	if st.Recycled == 0 || st.Phases == 0 {
		t.Fatalf("expected recycling churn, got %+v", st)
	}
}

// An initiator descheduled mid-swap leaves the pools in one of two states
// that concurrency reaches only by chance: the retire pool frozen at v+1
// with the processing pool still empty at v, or with the frozen chain
// already installed in it at v+2. From each, every path that meets the
// odd version must finish the swap exactly once: the retire pool ends at
// v+2 and every slot is in exactly one place.
func TestSwapHelpedFromEveryState(t *testing.T) {
	const localPool = 4
	finishers := []struct {
		name   string
		finish func(th *Thread[node], held []uint32) (live int)
	}{
		{"Retire", func(th *Thread[node], held []uint32) int {
			// The last Retire fills the block: its push meets VER-MISMATCH
			// and it runs Recycling.
			for _, s := range held {
				th.Retire(s)
			}
			return 0
		}},
		{"Recycling", func(th *Thread[node], held []uint32) int {
			th.Recycling()
			return len(held)
		}},
		{"pushRetireAnyPhase", func(th *Thread[node], held []uint32) int {
			blk := th.mgr.ba.Get()
			for _, s := range held {
				th.mgr.ba.B(blk).Push(s)
			}
			th.pushRetireAnyPhase(blk)
			return 0
		}},
	}
	for _, moved := range []bool{false, true} {
		for _, f := range finishers {
			t.Run(fmt.Sprintf("moved=%v/%s", moved, f.name), func(t *testing.T) {
				m := newMgr(t, Config{MaxThreads: 1, Capacity: 16 * localPool, LocalPool: localPool})
				th := m.Thread(0)
				for i := 0; i < 2*localPool; i++ {
					th.Retire(th.Alloc()) // two full blocks into the retire pool
				}
				held := make([]uint32, localPool)
				for i := range held {
					held[i] = th.Alloc()
				}
				m.StallSwap(moved)
				if !m.RetireFrozen() || m.Phase() != 0 {
					t.Fatalf("stalled swap: frozen=%v phase=%d, want true, 0", m.RetireFrozen(), m.Phase())
				}
				live := f.finish(th, held)
				if v := m.retire.Ver(); v != 2 || m.Phase() != 2 || m.RetireFrozen() {
					t.Fatalf("after %s: retire version %d, phase %d, frozen %v; want 2, 2, false",
						f.name, v, m.Phase(), m.RetireFrozen())
				}
				ready, retire, processing := m.PoolCounts()
				if total := ready + retire + processing + th.LocalCounts() + live; total != m.Capacity() {
					t.Fatalf("accounted %d of %d slots (ready=%d retire=%d processing=%d local=%d live=%d)",
						total, m.Capacity(), ready, retire, processing, th.LocalCounts(), live)
				}
			})
		}
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
	if s := h.Snapshot(); s.Sum == 0 || s.Max < s.Sum/s.Count {
		t.Fatalf("pause stats inconsistent: %+v", s)
	}
}

func TestQuiesceRecyclesEverything(t *testing.T) {
	m := newMgr(t, Config{MaxThreads: 2, Capacity: 256, LocalPool: 8, OwnerHPs: 3})
	rec := recycles(m)
	th := m.Thread(0)
	slots := make([]uint32, 0, 50)
	for i := 0; i < 50; i++ {
		slots = append(slots, th.Alloc())
	}
	gens := make([]uint32, len(slots))
	for i, s := range slots {
		gens[i] = rec.Gen(s)
		th.Retire(s)
	}
	if left := m.Quiesce(); left != 0 {
		t.Fatalf("Quiesce left %d slots unreclaimed with no hazard pointers", left)
	}
	for i, s := range slots {
		if rec.Gen(s) == gens[i] {
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
