package smr

import "sync"

// Gens counts recycles per slot: a slot's generation, the number of times
// a scheme recycled it. It is a test-only observation. No production
// manager keeps generations, and a recycle bumps nothing unless a test
// installed Bump as the manager's recycle hook (core.Manager.OnRecycle,
// guard.Manager.OnRecycle) before any thread ran. Tests read Gen to tell
// whether a protected slot was recycled, and that recycling resumes once
// the protection lifts. Bump and Gen are safe for concurrent use.
type Gens struct {
	mu sync.Mutex
	n  map[uint32]uint32
}

// Bump records one recycle of slot. It is a recycle hook.
func (g *Gens) Bump(slot uint32) {
	g.mu.Lock()
	if g.n == nil {
		g.n = make(map[uint32]uint32)
	}
	g.n[slot]++
	g.mu.Unlock()
}

// Gen returns how many recycles of slot were recorded: 0 for a slot never
// recycled since the hook was installed.
func (g *Gens) Gen(slot uint32) uint32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n[slot]
}
