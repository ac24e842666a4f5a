package main

import "repro/oamem"

// setCore reports the reclamation layer's counters over a traced phase:
// before and after are the scheme's own Stats (an oamem handle's, or the
// sum over the server's shards from STATS), ops the operations or
// requests in the phase, peak the most retired-but-unrecycled slots seen
// at 10 Hz — the quantity the paper bounds.
func (r *run) setCore(before, after oamem.Stats, ops int64, peak uint64) {
	per := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	n, retires := uint64(ops), after.Retires-before.Retires
	r.set("core.allocs_per_op", per(after.Allocs-before.Allocs, n), int(ops))
	r.set("core.retires_per_op", per(retires, n), int(ops))
	r.set("core.recycled_per_retire", per(after.Recycled-before.Recycled, retires), int(retires))
	r.set("core.phases", float64(after.Phases-before.Phases), 1)
	r.set("core.restart_share", per(after.Restarts-before.Restarts, n), int(ops))
	r.set("core.unreclaimed_peak", float64(max(peak, after.Unreclaimed())), 1)
}
