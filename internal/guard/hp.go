package guard

import (
	"repro/internal/arena"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Michael's hazard pointers (IEEE TPDS 2004), the primary competitor the
// paper measures (§6, "Related Work").
//
// Protocol per shared read of a node pointer: read the pointer, publish it
// in one of the guard's hazard pointers (the atomic store doubles as the
// memory fence the paper charges HP for), then validate by re-reading the
// source; if it changed, restart. A node may be reclaimed only when no
// guard's hazard pointer refers to it. Each guard buffers retired slots
// and, after ScanThreshold retires, scans all hazard pointers and frees the
// unprotected ones (Michael's "scan", amortized O(1) work per retire).
//
// Unlike the optimistic access scheme, every traversal hop pays the
// publish + fence + validate sequence — this is the overhead Figure 1
// shows as 2x-5x on pointer-chasing structures.

// protect publishes hazard pointer i on p (unmarked). The sequentially
// consistent store is the fence; the caller validates by re-reading the
// pointer's source afterwards.
func (g *Guard[N]) protect(i int, p arena.Ptr) {
	if p.IsNil() {
		g.hps[i].Store(0)
		return
	}
	g.hps[i].Store(uint64(p.Unmark().Slot()) + 1)
}

// clearHPs resets every hazard pointer of the guard.
func (g *Guard[N]) clearHPs() {
	for i := range g.hps {
		g.hps[i].Store(0)
	}
}

// retireHP buffers an unlinked slot; when ScanThreshold slots accumulate
// it runs Michael's scan.
func (g *Guard[N]) retireHP(slot uint32) {
	g.retired = append(g.retired, slot)
	if len(g.retired) >= g.m.scanThreshold {
		g.scanHP()
	}
}

// scanHP frees every locally retired slot no guard's hazard pointer
// protects; protected slots stay buffered for the next scan. Per
// Michael's paper the snapshot is a sorted array probed by binary search —
// with ScanThreshold retired slots per pass, hashing each probe into a map
// dominates the scan, sorting threads·HPs words does not.
func (g *Guard[N]) scanHP() {
	g.stats.Inc(obs.DrainPasses)
	hp := &g.scratch
	hp.Reset()
	for _, o := range g.m.guards {
		for i := range o.hps {
			if w := o.hps[i].Load(); w != 0 {
				hp.Add(uint32(w - 1))
			}
		}
	}
	hp.Seal()
	kept := g.retired[:0]
	var recycled, reRetired uint64
	for _, slot := range g.retired {
		if hp.Contains(slot) {
			kept = append(kept, slot)
			reRetired++
		} else {
			g.free(slot)
			recycled++
		}
	}
	g.stats.Add(obs.Recycled, recycled)
	g.stats.Add(obs.ReRetired, reRetired)
	g.retired = kept
	g.flush()
	if trace.Enabled() {
		g.ring.Record(trace.EvDrain, trace.DrainPayload(recycled, reRetired))
	}
}
