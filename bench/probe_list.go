package main

import "repro/oamem"

// probeList: a 5,000-key linked list is almost nothing but traversal —
// one oakit warning check per hop — so its OA/NoRecl pair is the purest
// price of the read barrier, and predicts the bucket walk in kvmap.Get.
func (r *run) probeList(p *probeCtx) error {
	return r.probeSetOps(p, "list", oamem.List, 5000, 10000, 24, "contains")
}
