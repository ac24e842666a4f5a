package main

import "repro/oamem"

// probeSkiplist: internal/skiplist through oamem.SkipList, sized as the
// skiplist-read workload sizes it. Its OA side is the hand-placed
// warning-check traversal (skiplist/oa.go).
func (r *run) probeSkiplist(p *probeCtx) error {
	return r.probeSetOps(p, "skiplist", oamem.SkipList, 10000, 20000, probeRounds/4, "contains", "insert", "delete")
}
