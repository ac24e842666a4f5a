// Package oakit holds the optimistic-access barriers once. The paper's
// three algorithms — the read check (Algorithm 1), the write barrier
// (Algorithm 2) and the generator seal (Algorithm 3) — are short and are
// meant to be applied mechanically to any normalized structure; every OA
// structure in this repository applies them through this package and
// places no hazard pointer, seal or executor call of its own.
//
// What is here:
//
//   - Engine/Ctx (this file): one core.Manager per structure universe,
//     cached per-context sessions that survive lease churn (so a pending
//     pre-allocated node is never stranded), Acquire/Release leasing with
//     the one double-release guard, and the barrier forms. Check is the
//     read barrier. Unlink/UnlinkRetire, WordCAS and HelpCAS are the
//     write barrier around the three shapes of observable CAS (a
//     physical delete, a payload word, a structure root). Commit (one
//     CAS) and the Begin/Own/Emit/CommitAll sequence (a descriptor list)
//     are the normalized commit: owner hazard pointers, seal, executor.
//     Hazard pointers are packed two per word and a word is stored only
//     when it changes (core.Thread); after a successful CAS or Commit
//     they stay published until the next publication overwrites them,
//     so a wrap-up may keep working under them, and Release clears them.
//     CommitAll clears its larger owner set on success.
//   - The chain (traverse.go): the OA Harris-Michael sorted list over
//     Node[V], the only copy of the Listing-1 search loop. internal/list
//     (and through it the hash table) is that chain with an empty
//     payload; internal/kvmap is the chain with a {Val, Aux} payload. A
//     delete unlinks the node it marked under the pins of its own
//     commit, so one barrier both marks and snips.
//
// Who rides it: list, hashtable and kvmap ride the chain; skiplist,
// queue and mpmc sit on Engine/Ctx and keep their own per-hop reads.
//
// What stays hand-written, and why. A structure's optimistic loads are
// its own: the kit cannot know which words of which node form one check
// batch. The skip list reads Next[level] of a multi-level node, the
// queues read two roots and one successor, and kvmap's Get and
// WalkBucket read the payload words inside the same batch as key and
// next — a callback per hop through a type parameter measured +6.9 % on
// a 5,000-key contains, so those loops load fields directly and call
// only Check. Everything after the loads — what to publish, when to
// seal, what to retire — is the kit's.
package oakit

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/normalized"
	"repro/internal/obs"
	"repro/internal/smr"
)

// Engine owns one OA universe for a structure of T-nodes: the manager
// (arena, session registry, reclamation phases) and the cached
// per-context sessions. Any number of roots may share one engine: a
// chain's root is a word outside the arena (a list's root, a bucket of
// Buckets), and structures that keep sentinel nodes (the skip list's
// head, the queues' dummy nodes) allocate them with NewRoot.
type Engine[T any] struct {
	mgr  *core.Manager[T]
	ctxs []*Ctx[T]
}

// NewEngine builds an engine sized by cfg. ownerHPs is the structure's
// owner hazard-pointer need (3·C for C CASes per generator; Algorithm 3);
// zero keeps cfg.OwnerHPs.
func NewEngine[T any](cfg core.Config, reset func(*T), ownerHPs int) *Engine[T] {
	if ownerHPs > 0 {
		cfg.OwnerHPs = ownerHPs
	}
	e := &Engine[T]{mgr: core.NewManager[T](cfg, reset)}
	e.ctxs = make([]*Ctx[T], e.mgr.MaxThreads())
	for i := range e.ctxs {
		e.ctxs[i] = &Ctx[T]{e: e, Th: e.mgr.Thread(i), pending: arena.NoSlot}
	}
	return e
}

// Manager exposes the underlying optimistic access manager.
func (e *Engine[T]) Manager() *core.Manager[T] { return e.mgr }

// NewRoot allocates a sentinel node during single-threaded setup: the
// skip list's head, an MS-queue's first dummy node. It borrows thread
// context 0.
func (e *Engine[T]) NewRoot() uint32 { return e.mgr.Thread(0).Alloc() }

// Ctx returns the cached session for thread context tid. Sessions are
// cached per context — a context's pending pre-allocated slot survives
// lease churn, so connect/disconnect cycles strand no slots. One
// goroutine at a time per context.
func (e *Engine[T]) Ctx(tid int) *Ctx[T] { return e.ctxs[tid] }

// Acquire leases a free thread context and returns its session. Fails
// with lease.ErrNoFreeSessions when all contexts are leased and
// lease.ErrClosed after Close.
func (e *Engine[T]) Acquire() (*Ctx[T], error) {
	t, err := e.mgr.AcquireThread()
	if err != nil {
		return nil, err
	}
	c := e.ctxs[t.ID()]
	c.released.Store(false)
	return c, nil
}

// Close marks the session registry closed; outstanding sessions stay
// valid until released.
func (e *Engine[T]) Close() { e.mgr.Close() }

// Stats reports the engine's reclamation counters.
func (e *Engine[T]) Stats() smr.Stats { return e.mgr.Stats() }

// RegisterObs forwards to the core manager.
func (e *Engine[T]) RegisterObs(reg *obs.Registry) { e.mgr.RegisterObs(reg) }

// Ctx is one leased thread context plus the kit's per-operation scratch:
// the pending pre-allocated slot every insert generator reuses across
// restarts, and the normalized CAS descriptor list.
type Ctx[T any] struct {
	// Th is the raw core thread handle, exported for the structure's
	// hand-written traversal loops (Node loads + Check validation).
	Th       *core.Thread[T]
	e        *Engine[T]
	pending  uint32
	dl       *normalized.DescList
	released atomic.Bool
}

// TID returns the session's thread context id.
func (c *Ctx[T]) TID() int { return c.Th.ID() }

// Node resolves an arena slot: it inlines to core.Thread.Node, the
// view's flat-region index.
func (c *Ctx[T]) Node(slot uint32) *T { return c.Th.Node(slot) }

// Check is the read barrier of Algorithm 1: call it after every batch of
// optimistic loads, before the loaded values are used. True means the
// operation must restart from its beginning (tagged CauseRead in the
// trace ring).
func (c *Ctx[T]) Check() bool { return c.Th.Check() }

// Release returns the session's thread context to the free pool; it
// panics on double release (two goroutines sharing one context would
// corrupt hazard-pointer and warning state silently). The hazard
// pointers the last operation left published are cleared
// (core.Manager.ReleaseThread); the pending slot stays attached to the
// cached session for the next lessee.
func (c *Ctx[T]) Release() {
	if c.released.Swap(true) {
		panic("oakit: double Release of Ctx")
	}
	c.e.mgr.ReleaseThread(c.Th)
}

// FlushRetired pushes locally buffered retired nodes onward (call when a
// worker finishes).
func (c *Ctx[T]) FlushRetired() { c.Th.FlushRetired() }

// Pending returns the session's pre-allocated insert slot, allocating
// one if none is pending. The slot is reused across generator restarts
// (allocation is not repeated on a warning) and consumed with
// ConsumePending once the insert's CAS is committed. Allocation panics
// with an error wrapping lease.ErrCapacityExhausted when the arena is
// starved; see Engine-level admission control.
func (c *Ctx[T]) Pending() uint32 {
	if c.pending == arena.NoSlot {
		c.pending = c.Th.Alloc()
	}
	return c.pending
}

// ConsumePending marks the pending slot as linked into the structure.
func (c *Ctx[T]) ConsumePending() { c.pending = arena.NoSlot }

// Begin opens the end of a generator round (Algorithm 3): it empties the
// context's descriptor list, to be filled with Emit, guarded with Own
// and run by CommitAll. The list lives with the context, not on the
// operation's stack, so an operation zeroes none of it; it is allocated
// on the context's first round, so the ~1 KB is paid by contexts that
// run multi-descriptor rounds (the skip list's), not by every slot of a
// registry sized for a thousand connections.
func (c *Ctx[T]) Begin() {
	if c.dl == nil {
		c.dl = new(normalized.DescList)
	}
	c.dl.Reset()
}

// Emit appends CAS(target: old → new) to the round's descriptor list.
func (c *Ctx[T]) Emit(target *atomic.Uint64, old, new uint64) { c.dl.Append(target, old, new) }

// Own publishes owner hazard pointer i: every node a descriptor of the
// round mentions — as target object, expected or new value — must be
// owned before the commit (pointers sharing a slot, such as next and
// mark(next), need one). Indices run from 0 up to the engine's ownerHPs.
func (c *Ctx[T]) Own(i int, p arena.Ptr) { c.Th.SetOwnerHP(i, p) }

// CommitAll runs the round staged since Begin: seal the generator with a
// warning check, execute the emitted CASes in order until the first
// failure, clear the owner set. False means restart the generator — the
// seal caught a warning (CauseSeal) or some CAS lost a race; CASes
// before the failed one have taken effect, as the normalized form
// allows. Unlike Commit, a round clears its owner set on success too: it
// pins up to MaxLevel+5 nodes of the skip list, the victim its caller
// retires next among them, and left published they would be withheld
// until the next round.
func (c *Ctx[T]) CommitAll() bool {
	th := c.Th
	if th.SealGenerator() {
		return false
	}
	failed := normalized.Execute(c.dl)
	th.ClearOwnerHPs()
	return failed == 0
}

// Unpin clears the owner hazard pointers a commit left published.
func (c *Ctx[T]) Unpin() { c.Th.ClearOwnerHPs() }

// Commit is the whole end of a single-CAS normalized operation
// (Algorithm 3 with C = 1): publish three owner hazard pointers for the
// CAS operands (pass NilPtr for unused ones), seal, execute
// CAS(target: old → new). False means restart the generator; the owner
// set is then cleared. On success it stays published until the next
// publication overwrites it, so the wrap-up may keep reading, or CASing
// next to, the pinned operands without an ABA window — a post-mark value
// read, the unlink of a node just marked, an MS-queue tail swing.
func (c *Ctx[T]) Commit(target *atomic.Uint64, old, new uint64, h0, h1, h2 arena.Ptr) bool {
	th := c.Th
	th.SetOwnerHPs(h0, h1, h2)
	if th.SealGenerator() {
		return false
	}
	if !target.CompareAndSwap(old, new) {
		c.Unpin()
		return false
	}
	return true
}

// WordCAS performs one observable CAS on a word of the node pinned by
// ptr, under the Algorithm 2 write barrier — the in-place update
// primitive (kvmap's Put-in-place, the TTL cache's deadline CAS).
// restart=true means the barrier caught a warning and the operation must
// restart (CauseWrite); otherwise swapped reports the CAS outcome.
func (c *Ctx[T]) WordCAS(ptr arena.Ptr, w *atomic.Uint64, old, new uint64) (swapped, restart bool) {
	if c.Th.ProtectCAS(ptr, arena.NilPtr, arena.NilPtr) {
		return false, true
	}
	return w.CompareAndSwap(old, new), false
}

// Unlink physically unlinks the marked node cur from its predecessor
// (CAS prevNext: cur → next) under the write barrier, without retiring
// it — the skip list's per-level snip, where only the deleter that won
// the bottom mark retires, after the node is out of every level. False
// means restart the traversal: the barrier caught a warning, or the CAS
// lost a race.
func (c *Ctx[T]) Unlink(prevNext *atomic.Uint64, prev, cur, next arena.Ptr) bool {
	if c.Th.ProtectCAS(prev, cur, next) {
		return false
	}
	return prevNext.CompareAndSwap(uint64(cur), uint64(next))
}

// UnlinkRetire is Unlink for a single-level chain, where the unlinker is
// the single retirer: on success it retires the slot — the helping
// physical delete every Harris-Michael traversal performs.
func (c *Ctx[T]) UnlinkRetire(prevNext *atomic.Uint64, prev, cur, next arena.Ptr) bool {
	if !c.Unlink(prevNext, prev, cur, next) {
		return false
	}
	c.Th.Retire(cur.Slot()) // proper: now unlinked, single unlinker
	return true
}

// HelpCAS performs an observable helping CAS on a structure root (an
// MS-queue tail swing): both operands are node handles, the target is a
// root, so Algorithm 2 applies to the operands only. False means the
// barrier caught a warning and the caller must restart; the CAS outcome
// itself is irrelevant to helpers (someone advanced the root).
func (c *Ctx[T]) HelpCAS(root *atomic.Uint64, old, new arena.Ptr) bool {
	if c.Th.ProtectCAS(arena.NilPtr, old, new) {
		return false
	}
	root.CompareAndSwap(uint64(old), uint64(new))
	return true
}
