// Package kvmap extends the paper's set structures into a key→value hash
// map under the optimistic access scheme — the extension a downstream user
// of the library most often needs. The bucket lists are the kit's OA
// Harris-Michael chain (oakit.Find and friends) over nodes that carry a
// value word and an auxiliary metadata word; Get/Put/PutIfAbsent/Remove
// follow the same normalized-form discipline as the sets:
//
//   - Get and WalkBucket are read-only: loads plus warning checks, no
//     fences (Algorithm 1). They are the two loops written here rather
//     than in the kit, because they read the payload words inside the
//     same check batch as key and next.
//   - Put updates in place with a CAS on the value word — an observable
//     CAS, so it runs under the Algorithm 2 write barrier (oakit.WordCAS);
//     an update on a concurrently deleted node linearizes before the
//     delete.
//   - PutIfAbsent is the chain's Insert with the payload filled before
//     the link; Remove/RemoveIfAux are its delete (oakit.Mark /
//     DeleteIf): one write barrier marks the node, and the unlink and
//     retire run at once under the same commit's owner hazard pointers
//     (oakit.UnlinkMarked), so a bulk removal — a cache sweep, an
//     eviction pass — frees every slot it removes within the call
//     instead of waiting for traffic to walk the bucket and help.
//
// The Aux word is uninterpreted here: internal/ttlcache packs TTL
// deadlines and LRU access stamps into it. The aux-conditioned
// primitives (GetWithAux, PutIfAbsentWithAux, AuxCAS, RemoveIfAux,
// WalkBucket) are policy-free so the map stays a plain KV store for
// callers that ignore them.
package kvmap

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/oakit"
	"repro/internal/smr"
)

// Payload is what a map node carries beside the chain's key and next
// words: the value and an auxiliary metadata word.
type Payload struct {
	Val atomic.Uint64
	Aux atomic.Uint64
}

// Node is a map node: the kit's chain node with a {Val, Aux} payload. All
// fields atomic (stale reads under OA).
type Node = oakit.Node[Payload]

// ResetNode zeroes a node (the allocation memset hook).
func ResetNode(n *Node) {
	n.Key.Store(0)
	n.V.Val.Store(0)
	n.V.Aux.Store(0)
	n.Next.Store(arena.NilPtr)
}

// Map is a lock-free hash map of uint64→uint64 under optimistic access.
type Map struct {
	kit     *oakit.Engine[Node]
	buckets oakit.Buckets
	// sessions holds the one Session of each thread context, a view of
	// the kit's cached context (which keeps the pending pre-allocated
	// node across lease churn).
	sessions []*Session
}

// New builds a map sized for expected entries. cfg.Capacity is the node
// budget (live entries + reclamation slack δ); the buckets are root words
// beside the arena (oakit.Buckets), not nodes in it.
func New(cfg core.Config, expected int) *Map {
	m := &Map{kit: oakit.NewChain(cfg, ResetNode), buckets: oakit.NewBuckets(expected)}
	m.sessions = make([]*Session, m.kit.Manager().MaxThreads())
	for i := range m.sessions {
		m.sessions[i] = &Session{m: m, c: m.kit.Ctx(i)}
	}
	return m
}

// Manager exposes the underlying optimistic access manager.
func (m *Map) Manager() *core.Manager[Node] { return m.kit.Manager() }

// Stats returns reclamation counters.
func (m *Map) Stats() smr.Stats { return m.kit.Stats() }

// Buckets returns the bucket count (for WalkBucket sweeps).
func (m *Map) Buckets() int { return len(m.buckets) }

// Session binds the map to worker tid; one session per goroutine.
//
// Deprecated: fixed thread ids cannot be assigned safely from dynamic
// goroutine populations; use Acquire, which leases a free context.
func (m *Map) Session(tid int) *Session { return m.sessions[tid] }

// Acquire leases a free thread context and returns its session. The
// session must be used by one goroutine at a time and returned with
// Release. Acquire fails with lease.ErrNoFreeSessions when all contexts
// are leased and lease.ErrClosed after Close.
func (m *Map) Acquire() (*Session, error) {
	c, err := m.kit.Acquire()
	if err != nil {
		return nil, err
	}
	return m.sessions[c.TID()], nil
}

// Close marks the session registry closed: Acquire fails from then on,
// outstanding sessions stay valid until Released.
func (m *Map) Close() { m.kit.Close() }

// Session is the per-thread handle of a Map.
type Session struct {
	m *Map
	c *oakit.Ctx[Node]
}

// TID returns the session's thread context id.
func (s *Session) TID() int { return s.c.TID() }

// FlushRetired pushes the session's partially filled local retire block
// into the global reclamation pipeline. Bulk-removal passes call it so
// every slot they freed becomes allocatable now, instead of the tail of
// the batch waiting in the local buffer for the block to fill.
func (s *Session) FlushRetired() { s.c.FlushRetired() }

// Release returns a session obtained from Acquire to the free pool. It
// panics on double release (the kit's guard: two goroutines sharing one
// context would corrupt hazard-pointer and warning state silently).
// Sessions obtained from the deprecated fixed-slot Session method must
// not be released.
func (s *Session) Release() { s.c.Release() }

// Get returns the value stored under key.
func (s *Session) Get(key uint64) (uint64, bool) {
	v, _, ok := s.GetWithAux(key)
	return v, ok
}

// GetWithAux returns the value and aux word stored under key. The two
// words are read in one validated batch, so the pair is consistent as of
// some instant during the call (Algorithm 1).
func (s *Session) GetWithAux(key uint64) (val, aux uint64, ok bool) {
	th := s.c.Th
	root := s.m.buckets.Root(key)
restart:
	for {
		cur := root.Load()
		for !cur.IsNil() {
			n := th.Node(cur.Unmark().Slot())
			next := n.Next.Load()
			ckey := n.Key.Load()
			v := n.V.Val.Load()
			a := n.V.Aux.Load()
			if th.Check() {
				continue restart
			}
			if ckey >= key {
				if ckey == key && !next.Marked() {
					return v, a, true
				}
				return 0, 0, false
			}
			cur = next.Unmark()
		}
		return 0, 0, false
	}
}

// PutIfAbsent stores val under key unless key is present; it reports
// whether the store happened.
func (s *Session) PutIfAbsent(key, val uint64) bool { return s.PutIfAbsentWithAux(key, val, 0) }

// PutIfAbsentWithAux is PutIfAbsent with the new node's aux word preset
// before it is linked (the node is private until the linking CAS, so the
// value/aux pair publishes atomically with the insert).
func (s *Session) PutIfAbsentWithAux(key, val, aux uint64) bool {
	return oakit.Insert(s.c, s.m.buckets.Root(key), key, func(n *Node) {
		n.V.Val.Store(val)
		n.V.Aux.Store(aux)
	})
}

// Put stores val under key, inserting or overwriting. It returns the
// previous value and whether one existed. An overwrite leaves the aux
// word untouched; a fresh insert zeroes it.
func (s *Session) Put(key, val uint64) (uint64, bool) {
	th := s.c.Th
	root := s.m.buckets.Root(key)
	for {
		// --- CAS generator ---
		pos, restart := oakit.Find(s.c, root, key)
		if restart {
			continue
		}
		if pos.At(key) {
			// In-place value update: one observable CAS on the value word
			// (Algorithm 2 protects the node against recycling).
			w := &th.Node(pos.Cur.Slot()).V.Val
			old := w.Load()
			if th.Check() {
				continue
			}
			swapped, restart := s.c.WordCAS(pos.Cur, w, old, val)
			if restart || !swapped {
				continue // warning, or the value raced; regenerate
			}
			return old, true
		}
		slot := s.c.Pending()
		n := th.Node(slot)
		n.Key.Store(key)
		n.V.Val.Store(val)
		n.V.Aux.Store(0)
		n.Next.Store(pos.Cur)
		if !s.c.Commit(oakit.Link(s.c, root, pos.Prev), pos.Cur, arena.MakePtr(slot),
			pos.Prev, pos.Cur, arena.MakePtr(slot)) {
			continue
		}
		s.c.ConsumePending()
		return 0, false
	}
}

// CompareAndSwap replaces the value under key with new only while the
// current value equals old. It returns (swapped, found): (false, false)
// when key is absent, (false, true) on a value mismatch. Like Put's
// in-place update it is one observable CAS on the value word under the
// Algorithm 2 write barrier, so it linearizes against concurrent Puts,
// Removes and other CASes.
func (s *Session) CompareAndSwap(key, old, new uint64) (swapped, found bool) {
	return s.casWord(key, old, new, false)
}

// AuxCAS is CompareAndSwap on the aux word: the linearization primitive
// for metadata transitions (TTL deadline updates, LRU access stamps,
// expiry tombstones) on a live entry.
func (s *Session) AuxCAS(key, old, new uint64) (swapped, found bool) {
	return s.casWord(key, old, new, true)
}

func (s *Session) casWord(key, old, new uint64, aux bool) (swapped, found bool) {
	th := s.c.Th
	root := s.m.buckets.Root(key)
	for {
		pos, restart := oakit.Find(s.c, root, key)
		if restart {
			continue
		}
		if !pos.At(key) {
			return false, false
		}
		n := th.Node(pos.Cur.Slot())
		w := &n.V.Val
		if aux {
			w = &n.V.Aux
		}
		v := w.Load()
		if th.Check() {
			continue
		}
		if v != old {
			return false, true
		}
		won, restart := s.c.WordCAS(pos.Cur, w, old, new)
		if restart {
			continue
		}
		if won {
			return true, true
		}
		// The word moved between the read and the CAS: re-search and
		// re-read — the next round reports mismatch or retries as needed.
	}
}

// Remove deletes key, returning the removed value and whether key existed.
func (s *Session) Remove(key uint64) (uint64, bool) {
	root := s.m.buckets.Root(key)
	pos, ok := oakit.Mark(s.c, root, key, nil)
	if !ok {
		return 0, false
	}
	// Read the removed value *after* winning the mark, while the owner
	// hazard pointer still pins the node: an in-place Put that lands
	// between the generator's read and the mark linearizes before this
	// Remove, so the post-mark value is the one removed.
	val := s.c.Node(pos.Cur.Slot()).V.Val.Load()
	oakit.UnlinkMarked(s.c, root, pos)
	return val, true
}

// RemoveIfAux deletes key only while aux&mask == want still holds on the
// node — the conditional removal lazy TTL expiry needs. The predicate is
// re-evaluated inside the generator on every restart and pinned by the
// normalized commit (oakit.DeleteIf), so a fresh same-key entry (or one
// whose aux was CASed away from the matching state) is never removed by
// a stale decision. Reports whether the removal happened.
func (s *Session) RemoveIfAux(key, mask, want uint64) bool {
	return oakit.DeleteIf(s.c, s.m.buckets.Root(key), key, func(n *Node) bool {
		return n.V.Aux.Load()&mask == want
	})
}

// WalkBucket visits every live entry of bucket b, calling fn(key, val,
// aux) until fn returns false. Each node's words are read in one
// validated batch, but the walk as a whole is weakly consistent: a
// concurrent warning restarts the bucket, so fn may see an entry more
// than once and concurrent insertions may be missed. Sweepers and
// samplers — the intended callers — tolerate both.
func (s *Session) WalkBucket(b int, fn func(key, val, aux uint64) bool) {
	th := s.c.Th
	root := &s.m.buckets[b]
restart:
	for {
		cur := root.Load()
		for !cur.IsNil() {
			n := th.Node(cur.Unmark().Slot())
			next := n.Next.Load()
			ckey := n.Key.Load()
			v := n.V.Val.Load()
			a := n.V.Aux.Load()
			if th.Check() {
				continue restart
			}
			if !next.Marked() {
				if !fn(ckey, v, a) {
					return
				}
			}
			cur = next.Unmark()
		}
		return
	}
}
