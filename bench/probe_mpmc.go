package main

import (
	"errors"

	"repro/internal/core"
	"repro/internal/mpmc"
)

// probeMPMC times one request's trip through a shard ring with nobody
// else on it: TryEnqueue then Dequeue on a ring bounded as the server
// bounds its own. Deleting the rings later deletes this file.
func (r *run) probeMPMC(p *probeCtx) error {
	g := mpmc.NewGroup(core.Config{MaxThreads: 2}, 1, 1024)
	prod, err := g.Acquire()
	if err != nil {
		return err
	}
	defer prod.Release()
	cons, err := g.Acquire()
	if err != nil {
		return err
	}
	defer cons.Release()
	q := g.Queue(0)
	var in, out mpmc.Payload
	ok := true
	r.timeOps(p, probeRounds, timedOp{"mpmc.enq_deq_ns", func(i int) {
		in[0] = uint64(i)
		ok = ok && prod.TryEnqueue(q, &in) && cons.Dequeue(q, &out) && out[0] == uint64(i)
	}})
	if !ok {
		return errors.New("probe: mpmc ring lost or reordered a payload")
	}
	return nil
}
