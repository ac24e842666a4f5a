package main

import (
	"sync"
	"time"
)

// probeRounds is how many timed batches a module probe takes per
// operation: enough for a steady median, a fraction of a second in all.
const probeRounds = 200

// probeCtx is what every module probe shares: where its spans go and how
// the workload draws keys.
type probeCtx struct {
	lane   *spanLane
	parent uint64
	keys   *keyPicker
}

// draw pre-draws n key indices, so that drawing (a pow per zipfian key)
// is not timed as part of the module.
func (p *probeCtx) draw(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = p.keys.next()
	}
	return out
}

// timedOp is one operation of a module: the metric its cost is reported
// under and the call. fn receives a call number that is unique over the
// whole probe, so each call can take its own pre-drawn key.
type timedOp struct {
	metric string
	fn     func(call int)
}

// timeOps times ops in batches of batchSize calls, one batch of each per
// round so that drift of the host falls on all of them alike, records a
// span per batch, and reports each op's median cost per call in ns.
func (r *run) timeOps(p *probeCtx, rounds int, ops ...timedOp) {
	per := make([][]float64, len(ops))
	call := 0
	for round := 0; round < rounds; round++ {
		for o, op := range ops {
			start := time.Now()
			for end := call + batchSize; call < end; call++ {
				op.fn(call)
			}
			end := time.Now()
			p.lane.record(op.metric, 0, p.parent, 0, start, end)
			per[o] = append(per[o], float64(end.Sub(start).Nanoseconds())/batchSize)
		}
	}
	for o, op := range ops {
		r.set(op.metric, median(per[o]), rounds)
	}
}

// calls is how many calls timeOps makes: the number of keys to draw.
func calls(rounds, ops int) int { return rounds * ops * batchSize }

// moduleProbes times each module's exported operations directly, in
// process, on keys drawn the way the workload draws them. One file per
// module (probe_<module>.go): deleting a module is a one-file change
// here plus its names in BENCHMARK.json.
func (r *run) moduleProbes(keys *keyPicker) error {
	lane := r.tr.lane(0)
	id, start := lane.newID(), time.Now()
	p := &probeCtx{lane: lane, parent: id, keys: keys}
	r.probeArena(p)
	r.probeFrameAppend(p)
	for _, probe := range []func(*probeCtx) error{
		r.probeHashtable, r.probeSkiplist, r.probeList,
		r.probeKVMap, r.probeTTLCache, r.probeMPMC,
	} {
		if err := probe(p); err != nil {
			return err
		}
	}
	lane.record("phase.module-probes", id, 0, 0, start, time.Now())
	return nil
}

// watch polls fn every period until the returned stop function is
// called; stop waits for the poller to finish.
func watch(period time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
