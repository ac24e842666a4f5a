// Stuck thread: the lock-freedom property that motivates the paper.
//
// Epoch-based reclamation is fast but not lock-free: one preempted,
// swapped-out, or crashed thread freezes the epoch and memory reclamation
// stops system-wide (paper §1, §6). The optimistic access scheme keeps
// reclaiming: a stuck thread's hazard pointers pin at most a handful of
// nodes, and its un-acknowledged warning bit only means *it* will restart
// when it wakes.
//
// This example parks one worker mid-operation under both schemes and
// measures how much memory churn the surviving workers can recycle. Under
// OA the stuck worker holds a *leased* session (the session registry the
// public oamem.Acquire API rides on): its lease is simply never returned,
// which costs one slot — it never blocks the other workers or the
// reclamation pipeline.
//
// Run with:
//
//	go run ./examples/stuckthread
package main

import (
	"fmt"
	"sync"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/hashtable"
	"repro/internal/sizing"
	"repro/internal/smr"
)

const (
	workers = 3 // plus one stuck thread
	churn   = 150_000
)

// run drives churn through the surviving workers while one thread is
// stuck, and reports how many nodes the scheme managed to recycle. The
// session hook maps a worker to its per-thread handle and returns the
// matching release (a lease under OA, a no-op under EBR's fixed slots).
func run(name string, set smr.Set, park func(), session func(id int) (smr.Session, func())) {
	park() // one thread wedges mid-operation and never returns

	var wg sync.WaitGroup
	for id := 1; id <= workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s, release := session(id)
			defer release()
			base := uint64(id) << 32
			for i := 0; i < churn; i++ {
				k := base + uint64(i%1024) + 1
				s.Insert(k)
				s.Delete(k)
			}
		}(id)
	}
	wg.Wait()
	st := set.Stats()
	fmt.Printf("%-4s retired=%-8d recycled=%-8d (%.1f%% reclaimed despite the stuck thread)\n",
		name, st.Retires, st.Recycled, 100*float64(st.Recycled)/float64(st.Retires))
}

func main() {
	fmt.Printf("churning %d insert/delete pairs on %d workers while one thread is stuck...\n\n",
		churn, workers)

	// --- OA: stuck thread parked mid-write-barrier — hazard pointers
	// published (Algorithm 2 prologue), warning bit never acknowledged.
	// Only the handful of nodes its hazard pointers pin stay unreclaimed.
	oaSet := hashtable.NewOA(core.Config{
		MaxThreads: workers + 1, Capacity: 1 << 16, LocalPool: 126,
	}, 4096)
	oaMgr := oaSet.Engine().Manager()
	run("OA", oaSet,
		func() {
			// The stuck thread leases a session like any oamem.Acquire
			// caller would... and never Releases it.
			th, err := oaMgr.AcquireThread()
			if err != nil {
				panic(err)
			}
			pinned := th.Alloc()
			th.ProtectCAS(arena.MakePtr(pinned), arena.NilPtr, arena.NilPtr)
			// ...and the thread never runs again.
		},
		func(int) (smr.Session, func()) {
			th, err := oaMgr.AcquireThread()
			if err != nil {
				panic(err)
			}
			return oaSet.Session(th.ID()), func() { oaMgr.ReleaseThread(th) }
		})

	// --- EBR: stuck thread parked inside an operation (its epoch
	// announcement is live and never retracted). The EBR engine has no
	// lease registry, so workers bind fixed slots the pre-leasing way.
	ebrSet, err := hashtable.NewGuarded(smr.EBR, sizing.Config{
		MaxThreads: workers + 1, Capacity: 1 << 16, OpsPerScan: 64,
	}, 4096)
	if err != nil {
		panic(err)
	}
	run("EBR", ebrSet,
		func() {
			g := ebrSet.Engine().Guard(0)
			g.Begin() // announce an epoch and never finish the operation
		},
		func(id int) (smr.Session, func()) {
			return ebrSet.Session(id), func() {}
		})

	fmt.Println("\nexpected: OA reclaims essentially everything; EBR reclaims almost nothing")
	fmt.Println("(its epoch cannot advance past the stuck announcement). This is why the")
	fmt.Println("paper rejects EBR for lock-free settings despite its speed.")
}
