package repro

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/kvmap"
	"repro/internal/list"
	"repro/internal/oakit"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/server"
	"repro/internal/sizing"
	"repro/internal/skiplist"
	"repro/internal/smr"
	"repro/internal/trace"
	"repro/internal/ttlcache"
)

// zanode is an oakit chain node with a user-defined payload: the kit's
// generic primitives must stay zero-alloc for any payload shape, not just
// the in-repo ones.
type zanode = oakit.Node[struct{ tag atomic.Uint64 }]

func resetZANode(n *zanode) {
	n.Key.Store(0)
	n.Next.Store(0)
	n.V.tag.Store(0)
}

// The data-structure hot paths must not allocate Go heap memory: all node
// storage comes from the arena, descriptor lists live on the stack, every
// scheme's node lookup reads the arena's flat region or its COW chunk
// table in place, and the hazard-pointer snapshots reuse a sorted scratch
// slice. A
// steady-state operation therefore performs zero allocations — checked
// here, because a stray escape would silently put Go's GC back into the
// benchmark loop the paper's scheme exists to avoid.
func TestSteadyStateOpsDoNotAllocate(t *testing.T) {
	const capacity = 1 << 14

	t.Run("ListOA", func(t *testing.T) {
		l := list.NewOA(core.Config{MaxThreads: 1, Capacity: capacity})
		s := l.Session(0)
		for k := uint64(1); k <= 512; k++ {
			s.Insert(k)
		}
		k := uint64(0)
		if avg := testing.AllocsPerRun(2000, func() {
			k++
			s.Contains(k%512 + 1)
			s.Insert(k%512 + 600)
			s.Delete(k%512 + 600)
		}); avg > 0.05 {
			t.Fatalf("list ops allocate %.2f objects/op", avg)
		}
	})

	t.Run("SkipListOA", func(t *testing.T) {
		sl := skiplist.NewOA(core.Config{MaxThreads: 1, Capacity: capacity})
		s := sl.Session(0)
		for k := uint64(1); k <= 512; k++ {
			s.Insert(k)
		}
		k := uint64(0)
		if avg := testing.AllocsPerRun(2000, func() {
			k++
			s.Contains(k%512 + 1)
			s.Insert(k%512 + 600)
			s.Delete(k%512 + 600)
		}); avg > 0.05 {
			t.Fatalf("skip list ops allocate %.2f objects/op", avg)
		}
	})

	t.Run("MapOA", func(t *testing.T) {
		m := kvmap.New(core.Config{MaxThreads: 1, Capacity: capacity}, 512)
		s := m.Session(0)
		k := uint64(0)
		if avg := testing.AllocsPerRun(2000, func() {
			k++
			s.Put(k%512+1, k)
			s.Get(k%512 + 1)
			s.Remove(k%512 + 1)
		}); avg > 0.05 {
			t.Fatalf("map ops allocate %.2f objects/op", avg)
		}
	})

	t.Run("MapOALeased", func(t *testing.T) {
		// Ops through a leased session are the network server's hot path;
		// the lease adds no per-op cost.
		m := kvmap.New(core.Config{MaxThreads: 2, Capacity: capacity}, 512)
		s, err := m.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		k := uint64(0)
		if avg := testing.AllocsPerRun(2000, func() {
			k++
			s.Put(k%512+1, k)
			s.Get(k%512 + 1)
			s.CompareAndSwap(k%512+1, k, k+1)
			s.Remove(k%512 + 1)
		}); avg > 0.05 {
			t.Fatalf("leased map ops allocate %.2f objects/op", avg)
		}
	})

	t.Run("MapOALeaseChurn", func(t *testing.T) {
		// A full Acquire/op/Release cycle is also allocation-free: the map
		// caches one session per thread context, so lease churn (connection
		// churn, in server terms) reuses it rather than rebuilding it.
		m := kvmap.New(core.Config{MaxThreads: 2, Capacity: capacity}, 512)
		k := uint64(0)
		if avg := testing.AllocsPerRun(2000, func() {
			s, err := m.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			k++
			s.Put(k%512+1, k)
			s.Remove(k%512 + 1)
			s.Release()
		}); avg > 0.05 {
			t.Fatalf("lease churn allocates %.2f objects/cycle", avg)
		}
	})

	t.Run("GenericListOA", func(t *testing.T) {
		// The oakit chain is generic over the payload; a payload shape of
		// its own must not put a boxed node pointer or an escaping
		// closure in the operation path.
		l := oakit.NewList(core.Config{MaxThreads: 1, Capacity: capacity}, resetZANode)
		s := l.Session(0)
		for k := uint64(1); k <= 512; k++ {
			s.Insert(k)
		}
		k := uint64(0)
		if avg := testing.AllocsPerRun(2000, func() {
			k++
			s.Contains(k%512 + 1)
			s.Insert(k%512 + 600)
			s.Delete(k%512 + 600)
		}); avg > 0.05 {
			t.Fatalf("generic kit ops allocate %.2f objects/op", avg)
		}
	})

	t.Run("CacheHit", func(t *testing.T) {
		// The cache layer adds aux-word decode + an access-stamp CAS over
		// the raw map read; none of it may touch the Go heap, or every GET
		// on the server's cache path would feed the GC.
		clock := new(atomic.Int64)
		clock.Store(1)
		m := kvmap.New(core.Config{MaxThreads: 2, Capacity: capacity}, 512)
		c := ttlcache.Over(m, ttlcache.Options{NowMs: clock.Load})
		defer c.Close()
		s, err := c.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		for k := uint64(1); k <= 512; k++ {
			if err := s.Set(k, k); err != nil {
				t.Fatal(err)
			}
		}
		k := uint64(0)
		if avg := testing.AllocsPerRun(2000, func() {
			k++
			clock.Add(1) // moving clock exercises the stamp-refresh CAS
			if _, ok := s.Get(k%512 + 1); !ok {
				t.Fatal("miss on an immortal key")
			}
			if err := s.Set(k%512+1, k); err != nil {
				t.Fatal(err)
			}
			s.TTL(k%512 + 1)
		}); avg > 0.05 {
			t.Fatalf("cache hit path allocates %.2f objects/op", avg)
		}
	})

	t.Run("QueueOA", func(t *testing.T) {
		q := queue.NewOA(core.Config{MaxThreads: 1, Capacity: capacity})
		s := q.QueueSession(0)
		k := uint64(0)
		if avg := testing.AllocsPerRun(2000, func() {
			k++
			s.Enqueue(k)
			s.Dequeue()
		}); avg > 0.05 {
			t.Fatalf("queue ops allocate %.2f objects/op", avg)
		}
	})
}

// Reclamation passes must stay (amortized) allocation-free too: Recycling
// snapshots hazard pointers into a reusable sorted slice and moves slots
// between pooled blocks, and the directory views refresh without copying.
// A few warm-up phases grow the scratch slice and the block freelist to
// steady state; after that, mutating ops plus a full Recycling call per
// run must not touch the Go heap.
func TestRecyclingDoesNotAllocate(t *testing.T) {
	const capacity = 1 << 14

	t.Run("ListOARecycling", func(t *testing.T) {
		l := list.NewOA(core.Config{MaxThreads: 1, Capacity: capacity})
		s := l.Session(0)
		for k := uint64(1); k <= 512; k++ {
			s.Insert(k)
		}
		th := l.Engine().Manager().Thread(0)
		k := uint64(0)
		warm := func() {
			k++
			s.Insert(k%512 + 600)
			s.Delete(k%512 + 600)
			th.Recycling()
		}
		for i := 0; i < 64; i++ {
			warm()
		}
		if avg := testing.AllocsPerRun(500, warm); avg > 0.05 {
			t.Fatalf("ops + Recycling allocate %.2f objects/run", avg)
		}
	})

	t.Run("ListOAShardedRecycling", func(t *testing.T) {
		// Forcing four pool shards (the 1-CPU default collapses to one)
		// must not cost allocations either: refills that steal across
		// shards and drains that sweep all shards reuse the same blocks
		// and thread-local rng state.
		l := list.NewOA(core.Config{MaxThreads: 1, Capacity: capacity, Shards: 4})
		s := l.Session(0)
		for k := uint64(1); k <= 512; k++ {
			s.Insert(k)
		}
		th := l.Engine().Manager().Thread(0)
		k := uint64(0)
		warm := func() {
			k++
			s.Insert(k%512 + 600)
			s.Delete(k%512 + 600)
			th.Recycling()
		}
		for i := 0; i < 64; i++ {
			warm()
		}
		if avg := testing.AllocsPerRun(500, warm); avg > 0.05 {
			t.Fatalf("sharded ops + Recycling allocate %.2f objects/run", avg)
		}
	})

	t.Run("ListHPScan", func(t *testing.T) {
		l, err := list.New(smr.HP, sizing.Config{
			MaxThreads: 1, Capacity: capacity, ScanThreshold: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := l.Session(0)
		for k := uint64(1); k <= 512; k++ {
			s.Insert(k)
		}
		k := uint64(0)
		warm := func() {
			// Each insert+delete retires one slot, so ScanThreshold=64
			// triggers a full Scan (sorted snapshot + probes) every 64 runs.
			k++
			s.Insert(k%512 + 600)
			s.Delete(k%512 + 600)
		}
		for i := 0; i < 512; i++ {
			warm()
		}
		if avg := testing.AllocsPerRun(2000, warm); avg > 0.05 {
			t.Fatalf("ops + amortized Scan allocate %.2f objects/run", avg)
		}
	})
}

// The observability layer must not cost allocations either: with hot-path
// counters enabled, every increment is an atomic add into a pre-allocated
// cache-padded block, so instrumented Insert/Delete/Search (and Recycling,
// which also feeds the drain counters) stay zero-alloc.
func TestInstrumentedOpsDoNotAllocate(t *testing.T) {
	const capacity = 1 << 14
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)

	t.Run("ListOAObsOn", func(t *testing.T) {
		l := list.NewOA(core.Config{MaxThreads: 1, Capacity: capacity})
		s := l.Session(0)
		for k := uint64(1); k <= 512; k++ {
			s.Insert(k)
		}
		k := uint64(0)
		if avg := testing.AllocsPerRun(2000, func() {
			k++
			s.Contains(k%512 + 1)
			s.Insert(k%512 + 600)
			s.Delete(k%512 + 600)
		}); avg > 0.05 {
			t.Fatalf("instrumented list ops allocate %.2f objects/op", avg)
		}
	})

	t.Run("SkipListOAObsOn", func(t *testing.T) {
		sl := skiplist.NewOA(core.Config{MaxThreads: 1, Capacity: capacity})
		s := sl.Session(0)
		for k := uint64(1); k <= 512; k++ {
			s.Insert(k)
		}
		k := uint64(0)
		if avg := testing.AllocsPerRun(2000, func() {
			k++
			s.Contains(k%512 + 1)
			s.Insert(k%512 + 600)
			s.Delete(k%512 + 600)
		}); avg > 0.05 {
			t.Fatalf("instrumented skip list ops allocate %.2f objects/op", avg)
		}
	})

	t.Run("ListOARecyclingObsOn", func(t *testing.T) {
		l := list.NewOA(core.Config{MaxThreads: 1, Capacity: capacity})
		s := l.Session(0)
		for k := uint64(1); k <= 512; k++ {
			s.Insert(k)
		}
		th := l.Engine().Manager().Thread(0)
		k := uint64(0)
		warm := func() {
			k++
			s.Insert(k%512 + 600)
			s.Delete(k%512 + 600)
			th.Recycling()
		}
		for i := 0; i < 64; i++ {
			warm()
		}
		if avg := testing.AllocsPerRun(500, warm); avg > 0.05 {
			t.Fatalf("instrumented ops + Recycling allocate %.2f objects/run", avg)
		}
	})
}

// Event tracing must stay off the Go heap as well: each Record is three
// atomic stores into a pre-allocated ring plus one monotonic clock read,
// so fully traced operations — including the Recycling passes that emit
// phase/warning/drain/freeze events and the refill events on the alloc
// path — run without allocations after the first phase warms the rings.
func TestTracedOpsDoNotAllocate(t *testing.T) {
	const capacity = 1 << 14
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)

	t.Run("ListOATraceOn", func(t *testing.T) {
		l := list.NewOA(core.Config{MaxThreads: 1, Capacity: capacity})
		s := l.Session(0)
		for k := uint64(1); k <= 512; k++ {
			s.Insert(k)
		}
		k := uint64(0)
		if avg := testing.AllocsPerRun(2000, func() {
			k++
			s.Contains(k%512 + 1)
			s.Insert(k%512 + 600)
			s.Delete(k%512 + 600)
		}); avg > 0.05 {
			t.Fatalf("traced list ops allocate %.2f objects/op", avg)
		}
	})

	t.Run("ListOARecyclingTraceOn", func(t *testing.T) {
		l := list.NewOA(core.Config{MaxThreads: 1, Capacity: capacity})
		s := l.Session(0)
		for k := uint64(1); k <= 512; k++ {
			s.Insert(k)
		}
		th := l.Engine().Manager().Thread(0)
		k := uint64(0)
		warm := func() {
			k++
			s.Insert(k%512 + 600)
			s.Delete(k%512 + 600)
			th.Recycling()
		}
		for i := 0; i < 64; i++ {
			warm()
		}
		if avg := testing.AllocsPerRun(500, warm); avg > 0.05 {
			t.Fatalf("traced ops + Recycling allocate %.2f objects/run", avg)
		}
		if rec := l.Engine().Manager().TraceRecorder(); rec.Total() == 0 {
			t.Fatal("no events recorded — the zero-alloc proof proved nothing")
		}
	})
}

// The serving layer's encode paths must hold the same line: the binary
// frame writer and the RESP reply writer both append into a per-
// connection buffer that is reused across requests, so a steady-state
// encode performs zero allocations. The shard router is pure arithmetic
// and sits on the read path of every request.
func TestServerEncodePathsDoNotAllocate(t *testing.T) {
	t.Run("BinaryFrameAppend", func(t *testing.T) {
		buf := make([]byte, 0, 256)
		id := uint64(0)
		if avg := testing.AllocsPerRun(2000, func() {
			id++
			buf = server.AppendFrame(buf[:0], id, 0, id*3, id*7)
		}); avg > 0.05 {
			t.Fatalf("AppendFrame allocates %.2f objects/op", avg)
		}
	})

	t.Run("RESPEncode", func(t *testing.T) {
		buf := make([]byte, 0, 256)
		body := []byte("1234567")
		n := int64(0)
		if avg := testing.AllocsPerRun(2000, func() {
			n++
			buf = server.AppendRESPSimple(buf[:0], "OK")
			buf = server.AppendRESPInt(buf, n)
			buf = server.AppendRESPBulk(buf, body)
			buf = server.AppendRESPNil(buf)
		}); avg > 0.05 {
			t.Fatalf("RESP encoders allocate %.2f objects/op", avg)
		}
	})

	t.Run("ShardRouting", func(t *testing.T) {
		sh := kvmap.NewSharded(core.Config{MaxThreads: 1, Capacity: 1 << 12}, 256, 4)
		defer sh.Close()
		k := uint64(0)
		sink := 0
		if avg := testing.AllocsPerRun(2000, func() {
			k += 0x9E3779B97F4A7C15
			sink += sh.ShardIndex(k)
		}); avg > 0.05 {
			t.Fatalf("ShardIndex allocates %.2f objects/op", avg)
		}
		_ = sink
	})
}
