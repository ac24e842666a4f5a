package oakit_test

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/dstest"
	"repro/internal/oakit"
	"repro/internal/smr"
	"repro/internal/trace"
)

// tval is the test payload: one word, so init publishing, DeleteIf
// predicates and WordCAS have something structure-specific to operate on.
type tval struct{ val atomic.Uint64 }

// tnode is the chain node carrying it.
type tnode = oakit.Node[tval]

func resetTNode(n *tnode) {
	n.Key.Store(0)
	n.Next.Store(0)
	n.V.val.Store(0)
}

func mkList(capacity int) dstest.Factory {
	return func(threads int) smr.Set {
		return oakit.NewList(core.Config{
			MaxThreads: threads, Capacity: capacity, LocalPool: 16,
		}, resetTNode)
	}
}

// The generic Level 2 list goes through the same black-box suites every
// hand-written (structure × scheme) pair passes — the kit's traversal,
// commit and helping logic must be indistinguishable from the ports.
func TestGenericListSequential(t *testing.T) { dstest.RunSequentialSuite(t, mkList(1<<16)) }
func TestGenericListConcurrent(t *testing.T) { dstest.RunConcurrentSuite(t, mkList(1<<16)) }
func TestGenericListConcurrentTight(t *testing.T) {
	// A tight arena forces reclamation churn mid-suite, maximizing the
	// chance of catching an unsafe warning-check placement in the kit.
	dstest.RunConcurrentSuite(t, mkList(4096))
}
func TestGenericListLinearizability(t *testing.T) { dstest.RunLinearizability(t, mkList(1<<16)) }
func TestGenericListStats(t *testing.T)           { dstest.RunStats(t, mkList(1<<16), smr.OA) }

func newEngine(t *testing.T, threads, capacity int) (*oakit.Engine[tnode], *atomic.Uint64) {
	t.Helper()
	e := oakit.NewEngine(core.Config{
		MaxThreads: threads, Capacity: capacity, LocalPool: 16,
	}, resetTNode, 3)
	t.Cleanup(e.Close)
	return e, new(atomic.Uint64)
}

// TestPendingLifecycle pins the pre-allocated insert slot contract: the
// slot is stable across calls (generator restarts must not re-allocate)
// and replaced only after ConsumePending.
func TestPendingLifecycle(t *testing.T) {
	e, _ := newEngine(t, 1, 4096)
	c := e.Ctx(0)
	p1 := c.Pending()
	if p2 := c.Pending(); p2 != p1 {
		t.Fatalf("Pending unstable across calls: %d then %d", p1, p2)
	}
	c.ConsumePending()
	if p3 := c.Pending(); p3 == p1 {
		t.Fatalf("Pending after consume handed back the linked slot %d", p1)
	}
}

// TestInsertInitPublishes checks init-filled payload words are visible
// atomically with an insert into an empty chain, and that DeleteIf's
// predicate gates the delete on the node's current payload.
func TestInsertInitPublishes(t *testing.T) {
	e, root := newEngine(t, 1, 4096)
	c := e.Ctx(0)
	if !oakit.Insert(c, root, 10, func(n *tnode) { n.V.val.Store(111) }) {
		t.Fatal("fresh insert failed")
	}
	if oakit.Insert(c, root, 10, nil) {
		t.Fatal("duplicate insert succeeded")
	}
	pos, restart := oakit.Find(c, root, uint64(10))
	if restart || !pos.At(10) {
		t.Fatalf("Find(10) = %+v restart=%v", pos, restart)
	}
	// The insert into the empty chain linked its node through the root
	// word, with a nil successor.
	if pos.Prev != arena.NilPtr || arena.Ptr(root.Load()) != pos.Cur || !pos.Next.IsNil() {
		t.Fatalf("Find(10) = %+v with root word %v, want the root's only node", pos, arena.Ptr(root.Load()))
	}
	if v := c.Node(pos.Cur.Slot()).V.val.Load(); v != 111 {
		t.Fatalf("payload = %d, want 111", v)
	}

	// Predicate sees the live payload; a non-matching value blocks the
	// delete without disturbing the entry.
	if oakit.DeleteIf(c, root, 10, func(n *tnode) bool { return n.V.val.Load() == 999 }) {
		t.Fatal("DeleteIf deleted on a false predicate")
	}
	if !oakit.Contains(c, root, uint64(10)) {
		t.Fatal("entry vanished after refused DeleteIf")
	}
	if !oakit.DeleteIf(c, root, 10, func(n *tnode) bool { return n.V.val.Load() == 111 }) {
		t.Fatal("DeleteIf refused a true predicate")
	}
	if oakit.Contains(c, root, uint64(10)) {
		t.Fatal("entry alive after DeleteIf")
	}
	if oakit.DeleteIf(c, root, 10, func(*tnode) bool { return true }) {
		t.Fatal("DeleteIf deleted an absent key")
	}
}

// TestWordCAS drives the in-place update primitive: a payload CAS under
// the write barrier, with the usual restart-on-warning loop around it.
func TestWordCAS(t *testing.T) {
	e, root := newEngine(t, 1, 4096)
	c := e.Ctx(0)
	if !oakit.Insert(c, root, 7, func(n *tnode) { n.V.val.Store(100) }) {
		t.Fatal("insert failed")
	}
	casVal := func(old, new uint64) bool {
		for {
			pos, restart := oakit.Find(c, root, uint64(7))
			if restart {
				continue
			}
			if !pos.At(7) {
				t.Fatal("key 7 missing")
			}
			n := c.Node(pos.Cur.Slot())
			swapped, restart := c.WordCAS(pos.Cur, &n.V.val, old, new)
			if restart {
				continue
			}
			return swapped
		}
	}
	if !casVal(100, 200) {
		t.Fatal("CAS 100→200 failed")
	}
	if casVal(100, 300) {
		t.Fatal("CAS with stale expectation succeeded")
	}
	pos, _ := oakit.Find(c, root, uint64(7))
	if v := c.Node(pos.Cur.Slot()).V.val.Load(); v != 200 {
		t.Fatalf("payload = %d, want 200", v)
	}
}

// TestCommitAll drives the multi-descriptor commit the skip list rides:
// Begin, one Emit and one Own per node, CommitAll. A failing k-th CAS
// reports restart with the CASes before it applied and those after it
// not; a pending warning restarts at the seal (CauseSeal) before any CAS
// runs; and in both cases the owner hazard pointers are cleared — seen as
// Quiesce withholding nothing once the owned nodes are retired, against
// the control of a node retired while still owned.
func TestCommitAll(t *testing.T) {
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	e := oakit.NewEngine(core.Config{MaxThreads: 1, Capacity: 512, LocalPool: 8}, resetTNode, 3)
	t.Cleanup(e.Close)
	c, mgr := e.Ctx(0), e.Manager()

	// stage emits val: i+1 → 10(i+1) on three fresh nodes, expecting
	// wrong on the k-th (k < 0: none wrong), and owns each node.
	stage := func(k int) (slots [3]uint32) {
		c.Begin()
		for i := range slots {
			slots[i] = c.Th.Alloc()
			w := &c.Node(slots[i]).V.val
			w.Store(uint64(i + 1))
			old := uint64(i + 1)
			if i == k {
				old = 99
			}
			c.Emit(w, old, uint64(10*(i+1)))
			c.Own(i, arena.MakePtr(slots[i]))
		}
		return slots
	}
	vals := func(slots [3]uint32) (v [3]uint64) {
		for i, s := range slots {
			v[i] = c.Node(s).V.val.Load()
		}
		return v
	}
	// withheld retires the nodes and reports how many a full
	// reclamation still finds hazard-pointer protected.
	withheld := func(slots [3]uint32) int {
		for _, s := range slots {
			c.Th.Retire(s)
		}
		n := mgr.Quiesce()
		c.Check() // acknowledge the phases Quiesce ran
		return n
	}

	// Control: owned and never committed — the nodes are withheld.
	owned := stage(-1)
	if n := withheld(owned); n != 3 {
		t.Fatalf("Quiesce withheld %d of 3 nodes retired while owned", n)
	}
	c.Unpin()

	// The second CAS fails.
	failed := stage(1)
	if c.CommitAll() {
		t.Fatal("CommitAll succeeded with a failing second CAS")
	}
	if got, want := vals(failed), [3]uint64{10, 2, 3}; got != want {
		t.Fatalf("after a failing second CAS the words are %v, want %v", got, want)
	}
	if n := withheld(failed); n != 0 {
		t.Fatalf("a failed CommitAll left %d owner hazard pointers published", n)
	}

	// A warning is pending at the seal.
	before := mgr.Stats().Restarts
	warned := stage(-1)
	mgr.InjectWarnings(1 << 20)
	if c.CommitAll() {
		t.Fatal("CommitAll succeeded past a pending warning")
	}
	if got, want := vals(warned), [3]uint64{1, 2, 3}; got != want {
		t.Fatalf("a sealed-off round executed CASes: words %v, want %v", got, want)
	}
	if mgr.Stats().Restarts != before+1 {
		t.Fatalf("the seal counted %d restarts, want 1", mgr.Stats().Restarts-before)
	}
	sealed := false
	for _, ev := range mgr.TraceRecorder().Events() {
		sealed = sealed || ev.Kind == trace.EvRestart && trace.Cause(ev.Arg) == trace.CauseSeal
	}
	if !sealed {
		t.Fatal("no restart event with cause seal")
	}
	if n := withheld(warned); n != 0 {
		t.Fatalf("a sealed-off CommitAll left %d owner hazard pointers published", n)
	}

	// Nothing in the way: every CAS applies.
	ok := stage(-1)
	if !c.CommitAll() {
		t.Fatal("CommitAll failed with nothing in its way")
	}
	if got, want := vals(ok), [3]uint64{10, 20, 30}; got != want {
		t.Fatalf("after CommitAll the words are %v, want %v", got, want)
	}
	if n := withheld(ok); n != 0 {
		t.Fatalf("a successful CommitAll left %d owner hazard pointers published", n)
	}
}

// TestReleaseClearsHazardPointers: a successful commit leaves its owner
// hazard pointers published — a Delete's deleter keeps pinning the node
// it just unlinked and retired — until Release clears every word, after
// which the next phase recycles that node. Clearing belongs to Release,
// not to FlushRetired or Quiesce: TestCommitAll's control withholds
// nodes owned across a Quiesce. The deleted node is the chain's first, so
// the unlink goes through the root word, and it is retired once.
func TestReleaseClearsHazardPointers(t *testing.T) {
	e, root := newEngine(t, 2, 4096)
	mgr := e.Manager()
	c, err := e.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{1, 2} {
		if !oakit.Insert(c, root, k, nil) {
			t.Fatalf("insert %d failed", k)
		}
	}
	pos, restart := oakit.Find(c, root, uint64(1))
	if restart || !pos.At(1) || pos.Prev != arena.NilPtr {
		t.Fatalf("Find(1) = %+v restart=%v, want key 1 behind the root", pos, restart)
	}
	victim := pos.Cur.Slot()
	gen := mgr.Arena().Gen(victim)
	if !oakit.Delete(c, root, 1) {
		t.Fatal("delete failed")
	}
	if got := arena.Ptr(root.Load()); got != pos.Next {
		t.Fatalf("root word %v after deleting the first node, want its successor %v", got, pos.Next)
	}
	if st := e.Stats(); st.Retires != 1 {
		t.Fatalf("Delete retired %d nodes, want 1", st.Retires)
	}
	if n := c.Th.PublishedHPs(); n == 0 {
		t.Fatal("a successful Delete left no hazard pointer published")
	}
	c.FlushRetired()
	if left := mgr.Quiesce(); left != 1 {
		t.Fatalf("Quiesce withheld %d nodes before Release, want the 1 its deleter still pins", left)
	}
	c.Release()
	if n := c.Th.PublishedHPs(); n != 0 {
		t.Fatalf("Release left %d hazard pointers published", n)
	}
	if left := mgr.Quiesce(); left != 0 {
		t.Fatalf("Quiesce withheld %d nodes after Release", left)
	}
	if mgr.Arena().Gen(victim) == gen {
		t.Fatal("the node the released context last pinned was not recycled")
	}
	if st := e.Stats(); st.Retires != 1 {
		t.Fatalf("%d retires in all, want 1", st.Retires)
	}
}

// TestRootHelpingUnlink: a first node marked by a deleter that has not yet
// unlinked it is snipped through the root word by another context's Find,
// and retired exactly once: the deleter's own unlink, run afterwards,
// loses its CAS and retires nothing.
func TestRootHelpingUnlink(t *testing.T) {
	e, root := newEngine(t, 2, 4096)
	deleter, helper := e.Ctx(0), e.Ctx(1)
	for _, k := range []uint64{1, 2} {
		if !oakit.Insert(deleter, root, k, nil) {
			t.Fatalf("insert %d failed", k)
		}
	}
	pos, ok := oakit.Mark(deleter, root, 1, nil)
	if !ok || pos.Prev != arena.NilPtr {
		t.Fatalf("Mark(1) = %+v %v, want a win behind the root", pos, ok)
	}
	if got := arena.Ptr(root.Load()); got != pos.Cur {
		t.Fatalf("root word %v after the mark alone, want the marked node %v", got, pos.Cur)
	}
	if hp, restart := oakit.Find(helper, root, 2); restart || !hp.At(2) || hp.Prev != arena.NilPtr {
		t.Fatalf("helper Find(2) = %+v restart=%v, want key 2 behind the root", hp, restart)
	}
	if got := arena.Ptr(root.Load()); got != pos.Next {
		t.Fatalf("root word %v after the helper's Find, want %v", got, pos.Next)
	}
	if st := e.Stats(); st.Retires != 1 {
		t.Fatalf("the helping unlink retired %d nodes, want 1", st.Retires)
	}
	oakit.UnlinkMarked(deleter, root, pos)
	if st := e.Stats(); st.Retires != 1 {
		t.Fatalf("%d retires after the deleter's late unlink, want 1", st.Retires)
	}
	if oakit.Contains(helper, root, 1) || !oakit.Contains(helper, root, 2) {
		t.Fatal("chain contents wrong after the helped delete")
	}
}

// TestHelpingRetires checks the logical-delete → helping-unlink → retire
// pipeline: nodes marked by deleters that never reach their own unlink
// (Mark without UnlinkMarked — a deleter stalled after its mark, or one
// whose unlink CAS lost) are physically unlinked and retired by later
// traversals, every one of them.
func TestHelpingRetires(t *testing.T) {
	e, root := newEngine(t, 1, 8192)
	c := e.Ctx(0)
	const n = 500
	for k := uint64(1); k <= n; k++ {
		if !oakit.Insert(c, root, k, nil) {
			t.Fatalf("insert %d", k)
		}
	}
	// Highest key first, so no Mark's search passes an already marked node.
	for k := uint64(n); k >= 1; k-- {
		if _, ok := oakit.Mark(c, root, k, nil); !ok {
			t.Fatalf("mark %d", k)
		}
	}
	if st := e.Stats(); st.Retires != 0 {
		t.Fatalf("marking alone retired %d nodes", st.Retires)
	}
	// A traversal past the marked span helps-unlink all of it. Find with
	// a key beyond every deleted one walks the whole chain.
	for {
		if _, restart := oakit.Find(c, root, uint64(n+1)); !restart {
			break
		}
	}
	if st := e.Stats(); st.Retires < n {
		t.Fatalf("retired %d of %d deleted nodes", st.Retires, n)
	}
	for k := uint64(1); k <= n; k++ {
		if oakit.Contains(c, root, k) {
			t.Fatalf("deleted key %d still visible", k)
		}
	}
}

// TestStuckReaderDuringSweep pins the two OA promises a cache sweep
// leans on. A reader captures a position and goes dormant; a second
// session bulk-deletes the span it was reading (the ttlcache reap
// pattern) and churns a tiny arena until the swept slots are recycled
// out from under the dormant reader. Lock-freedom: reclamation phases
// and recycling proceed while the reader sleeps — a stuck thread never
// stalls the pipeline (the paper's core claim vs EBR). Safety: the
// resumed reader's stale optimistic read is caught by the warning
// check and a restart observes the post-sweep world, never a torn one.
func TestStuckReaderDuringSweep(t *testing.T) {
	e := oakit.NewEngine(core.Config{
		MaxThreads: 2, Capacity: 1024, LocalPool: 8,
	}, resetTNode, 3)
	t.Cleanup(e.Close)
	root := new(atomic.Uint64)
	reader := e.Ctx(0)
	churn := e.Ctx(1)

	for k := uint64(1); k <= 100; k++ {
		if !oakit.Insert(churn, root, k, func(n *tnode) { n.V.val.Store(k * 10) }) {
			t.Fatalf("seed insert %d", k)
		}
	}
	var pos oakit.Pos
	for {
		p, restart := oakit.Find(reader, root, uint64(50))
		if !restart {
			if !p.At(50) {
				t.Fatalf("Find(50) = %+v", p)
			}
			pos = p
			break
		}
	}

	// Reader is now "stuck" holding pos. Sweep its span, then cycle the
	// arena hard enough that real phases recycle the swept slots.
	before := e.Stats()
	for k := uint64(1); k <= 100; k++ {
		if !oakit.Delete(churn, root, k) {
			t.Fatalf("sweep delete %d", k)
		}
	}
	for i := 0; i < 20000; i++ {
		k := uint64(200 + i%300)
		oakit.Insert(churn, root, k, nil)
		oakit.Delete(churn, root, k)
	}
	after := e.Stats()
	if after.Recycled <= before.Recycled {
		t.Fatalf("nothing recycled while the reader was stuck (recycled %d -> %d): the dormant reader blocked reclamation",
			before.Recycled, after.Recycled)
	}
	if after.Phases <= before.Phases {
		t.Fatalf("no reclamation phases while the reader was stuck (%d -> %d)", before.Phases, after.Phases)
	}

	// Resume. The slot behind the stale position may hold a recycled
	// node by now — reading it must not fault (arena handles keep it
	// addressable) and the warning check must demand a restart.
	_ = reader.Node(pos.Cur.Slot()).V.val.Load()
	if !reader.Check() {
		t.Fatal("warning check missed the phases that recycled under the stuck reader")
	}
	if oakit.Contains(reader, root, uint64(50)) {
		t.Fatal("restarted traversal still sees the swept key")
	}
	for k := uint64(200); k < 500; k++ {
		if oakit.Contains(reader, root, k) {
			t.Fatalf("churn key %d leaked into the final state", k)
		}
	}
}

// TestGenericListWarningStorm injects spurious warning bits while a
// worker runs against a model: a warning may only ever restart a
// parallelizable method, so results must stay exactly sequential. This
// is the kit-level version of the chaos suite every hand-written port
// passes — it hammers the restart edge of every generic primitive.
func TestGenericListWarningStorm(t *testing.T) {
	l := oakit.NewList(core.Config{
		MaxThreads: 2, Capacity: 8192, LocalPool: 16,
	}, resetTNode)
	mgr := l.Engine().Manager()

	stop := make(chan struct{})
	storming := make(chan struct{})
	go func() {
		defer close(storming)
		fake := uint32(1 << 20)
		for {
			select {
			case <-stop:
				return
			default:
			}
			mgr.InjectWarnings(fake)
			fake += 2
			for i := 0; i < 200; i++ {
				atomic.LoadUint32(&fake)
			}
		}
	}()

	s := l.Session(0)
	model := map[uint64]bool{}
	rng := rand.New(rand.NewSource(31337))
	for i := 0; i < 40000; i++ {
		if i%512 == 0 {
			// Single-CPU runners can finish the op loop inside one
			// timeslice; yield so warnings actually land mid-stream.
			runtime.Gosched()
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
	close(stop)
	<-storming
	for k := uint64(1); k <= 128; k++ {
		if got, want := s.Contains(k), model[k]; got != want {
			t.Fatalf("final: Contains(%d) = %v, want %v", k, got, want)
		}
	}
}
