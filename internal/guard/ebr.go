package guard

import (
	"repro/internal/obs"
	"repro/internal/trace"
)

// Epoch-based reclamation (Harris 2001, Fraser's lockfree-lib), the
// non-lock-free baseline the paper measures as EBR.
//
// Each guard announces the global epoch (the manager's clock) when an
// operation starts and goes quiescent when it ends. Retired slots wait in
// per-guard limbo lists keyed by epoch modulo 3; once every active guard
// has announced the current epoch, the epoch advances and the generation
// retired two epochs ago is freed — no thread can still hold references
// into it.
//
// The scheme's known weaknesses, which the paper's evaluation exercises,
// are (a) the per-operation announcement write + fence, which dominates on
// the hash table's extremely short operations (Figure 1), and (b) a stalled
// thread freezes the epoch and stops reclamation entirely — it is not
// lock-free (TestStalledThreadBlocksReclamation).

// retireEBR buffers slot in the limbo generation of the current global
// epoch. Not the guard's announced epoch: the global one may have moved
// past it while the operation ran, and an operation announced at the
// newer epoch may have reached the slot before it was unlinked. Tagged
// one epoch low, the slot would be freed as soon as that reader's epoch
// is current, while the reader still runs.
func (g *Guard[N]) retireEBR(slot uint32) {
	e := g.m.clock.Load()
	g.limbo[e%3] = append(g.limbo[e%3], slot)
}

// tryAdvance bumps the global epoch if every active guard has announced
// the current one. Returns the (possibly new) epoch.
func (m *Manager[N]) tryAdvance() uint64 {
	e := m.clock.Load()
	for _, o := range m.guards {
		w := o.state.Load()
		if w&1 == 1 && w>>1 != e {
			return e // an active thread lags: cannot advance
		}
	}
	m.clock.CompareAndSwap(e, e+1)
	return m.clock.Load()
}

// reclaimEBR advances the epoch if possible and frees the generation
// retired two epochs ago: with epoch e current, generation (e+1)%3 ≡ e-2
// is safe.
func (g *Guard[N]) reclaimEBR() {
	before := g.m.clock.Load()
	e := g.m.tryAdvance()
	if trace.Enabled() && e != before {
		// Attribute the advance to the thread whose reclaim drove it
		// (approximate under concurrent advancers, like the counters).
		g.ring.Record(trace.EvPhase, e)
	}
	l := &g.limbo[(e+1)%3]
	if len(*l) == 0 {
		return
	}
	n := uint64(len(*l))
	for _, slot := range *l {
		g.free(slot)
	}
	g.stats.Add(obs.Recycled, n)
	*l = (*l)[:0]
	g.flush()
	if trace.Enabled() {
		g.ring.Record(trace.EvDrain, trace.DrainPayload(n, 0))
	}
}
