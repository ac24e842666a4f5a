package main

import "repro/internal/arena"

var probeSink uint64

// probeArena times arena.View.At, the slot-to-pointer step under every
// node dereference of every structure, on slots picked as the workload
// picks keys (so cache misses are in it).
func (r *run) probeArena(p *probeCtx) {
	const slots = 1 << 16
	a := arena.New[[4]uint64](slots)
	a.Reserve(slots)
	v := a.View()
	keys := p.draw(calls(probeRounds, 1))
	r.timeOps(p, probeRounds, timedOp{"arena.at_ns", func(i int) {
		probeSink += v.At(uint32(keys[i] % slots))[0]
	}})
}
