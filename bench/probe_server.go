package main

import (
	"time"

	"repro/internal/server"
)

// serverDerived are the per-layer metrics that only a spawned oaserver
// can supply. A structure workload has no server, and reports them as 0
// with no samples.
var serverDerived = []string{
	"server.stage_read_ns", "server.stage_route_ns", "server.stage_lease_ns",
	"server.stage_exec_ns", "server.stage_queue_ns", "server.avg_batch",
	"server.ring_depth_peak", "server.ring_full", "server.get_mean_ns",
	"server.get_p99_ns", "server.put_mean_ns", "server.put_p99_ns",
	"server.cpu_ns_per_req", "server.busy", "server.capacity_refusals",
	"server.restarts_per_kreq", "server.unreclaimed_peak", "server.unaccounted_ns",
	"server.map_share", "gen.late_p99_us",
}

// listenerPair are the like-for-like listener costs, which need a
// cache-less server with both listeners: serve-bin-mixed measures them.
var listenerPair = []string{"server.bin_ns_per_req", "server.resp_ns_per_req"}

// cacheDerived come from the server's cache block; a server without
// -cache reports them as 0 with no samples.
var cacheDerived = []string{
	"ttlcache.hit_share", "ttlcache.expired", "ttlcache.evicted",
	"ttlcache.reliefs", "ttlcache.sweeps",
}

func (r *run) noServer() {
	r.na(serverDerived...)
	r.na(listenerPair...)
	r.na(cacheDerived...)
}

// probeFrameAppend times the binary reply encoder the server runs once
// per response.
func (r *run) probeFrameAppend(p *probeCtx) {
	buf := make([]byte, 0, 64)
	r.timeOps(p, probeRounds, timedOp{"server.frame_append_ns", func(i int) {
		buf = server.AppendFrame(buf[:0], uint64(i), 0, uint64(i))
		probeSink += uint64(len(buf))
	}})
}

// traced is the per-layer run of a serve workload. Every source is
// outside the program: STATS over a control connection, /debug/slowlog
// of a server started with the observability flags, /proc/<pid>/stat,
// and the benchmark's own clocks.
func (s serveSpec) traced(r *run, bin string, in serveInputs) error {
	// A server without the observability flags gives the rate that
	// tracing is charged against.
	ss, err := s.start(bin, false, in)
	if err != nil {
		return err
	}
	untraced, err := s.untracedPhases(r, ss)
	if err != nil {
		ss.abandon()
		return err
	}
	if err := ss.stop(); err != nil {
		return err
	}

	// The same workload against a server with -debug -trace and a 1 ns
	// slow threshold, so every request leaves its stage breakdown in the
	// slow log.
	if ss, err = s.start(bin, true, in); err != nil {
		return err
	}
	if err := s.tracedPhases(r, ss, untraced); err != nil {
		ss.abandon()
		return err
	}
	if err := ss.stop(); err != nil {
		return err
	}

	// With the server gone and the host quiet, the modules one by one,
	// on keys drawn as this workload draws them.
	keys := newKeyPicker(newRNG(r.cfg.seed, "probe-keys", 0), s.stream.universe, s.stream.theta)
	if err := r.moduleProbes(keys); err != nil {
		return err
	}
	m := s.stream.mix
	mapNs := m.get*r.value("kvmap.get_ns") + m.put*r.value("kvmap.put_ns") +
		m.del*r.value("kvmap.remove_ns") + (1-m.get-m.put-m.del)*r.value("kvmap.cas_ns") +
		r.value("kvmap.route_ns")
	r.set("server.map_share", mapNs/r.value("server.cpu_ns_per_req"), 1)
	return nil
}

// untracedPhases warms the plain server up and returns its closed-loop
// rate; on a cache-less workload it also compares the two listeners.
func (s serveSpec) untracedPhases(r *run, ss *serveSession) (rate float64, err error) {
	c, err := ss.ledger()
	if err != nil {
		return 0, err
	}
	r.phase("preload", ss.setup.Seconds(), c)
	sat := r.dur(0.2)
	if _, c, err = ss.closed(2*sliceWidth(sat), sliceWidth(sat)); err != nil {
		return 0, err
	}
	r.phase("warmup", (2 * sliceWidth(sat)).Seconds(), c)
	rates, c, err := ss.closed(sat, sliceWidth(sat))
	if err != nil {
		return 0, err
	}
	r.phase("sat-untraced", sat.Seconds(), c)
	if !s.likeForLike {
		r.na(listenerPair...)
		return median(rates), nil
	}
	return median(rates), s.compareListeners(r, ss, r.dur(0.125))
}

// tracedPhases measures the server started with the observability flags:
// a closed-loop phase for the counters, a paced phase for the stages.
func (s serveSpec) tracedPhases(r *run, ss *serveSession, untracedRate float64) error {
	lane := r.tr.lane(0)
	if _, err := ss.ledger(); err != nil {
		return err
	}
	sat := r.dur(0.25)
	if _, _, err := ss.closed(2*sliceWidth(sat), sliceWidth(sat)); err != nil {
		return err
	}

	// Saturation: reclamation counters, ring behaviour, CPU per request.
	before, err := ss.ctl.stats()
	if err != nil {
		return err
	}
	cpu0, err := ss.proc.cpuNs()
	if err != nil {
		return err
	}
	var peakUnreclaimed uint64
	var peakDepth int
	var pollErr error
	stop := watch(100*time.Millisecond, func() {
		st, err := ss.ctl.stats()
		if err != nil {
			pollErr = err
			return
		}
		peakUnreclaimed = max(peakUnreclaimed, st.smr().Unreclaimed())
		for _, d := range st.Server.RingDepth {
			peakDepth = max(peakDepth, d)
		}
	})
	satID, satStart := lane.newID(), time.Now()
	rates, c, err := ss.closed(sat, sliceWidth(sat))
	stop()
	if err == nil {
		err = pollErr
	}
	if err != nil {
		return err
	}
	lane.record("phase.sat-traced", satID, 0, 0, satStart, time.Now())
	r.phase("sat-traced", sat.Seconds(), c)
	cpu1, err := ss.proc.cpuNs()
	if err != nil {
		return err
	}
	after, err := ss.ctl.stats()
	if err != nil {
		return err
	}
	reqs := float64(c.Attempted)
	r.setCore(before.smr(), after.smr(), c.Attempted, peakUnreclaimed)
	r.set("server.unreclaimed_peak", r.value("core.unreclaimed_peak"), 1)
	r.set("server.restarts_per_kreq", float64(after.smr().Restarts-before.smr().Restarts)/reqs*1000, int(reqs))
	r.set("server.cpu_ns_per_req", (cpu1-cpu0)/reqs, int(reqs))
	r.set("server.ring_depth_peak", float64(peakDepth), 1)
	r.set("server.ring_full", float64(after.Server.RingFull-before.Server.RingFull), 1)
	r.set("server.busy", float64(after.Server.Busy-before.Server.Busy), 1)
	r.set("server.capacity_refusals", float64(after.Server.Capacity-before.Server.Capacity), 1)
	if batches := after.Server.Batches - before.Server.Batches; batches > 0 {
		r.set("server.avg_batch", float64(after.Server.BatchedOps-before.Server.BatchedOps)/float64(batches), int(batches))
	} else {
		r.na("server.avg_batch") // nothing went through the rings (RESP executes inline)
	}
	r.set("trace.overhead_share", 1-median(rates)/untracedRate, len(rates))

	// Paced: the stage breakdown of requests at a rate the server
	// sustains, and what of the client-side median no stage explains.
	stageSum, stageN := map[string]float64{}, 0
	lastSeen := time.Now().UnixNano()
	pollSlowlog := func() {
		entries, err := ss.proc.slowlog()
		if err != nil {
			pollErr = err
			return
		}
		newest := lastSeen
		for _, e := range entries {
			if e.UnixNano <= lastSeen {
				continue
			}
			newest = max(newest, e.UnixNano)
			stageN++
			for name, ns := range e.Stages {
				stageSum[name] += float64(ns)
			}
		}
		lastSeen = newest
	}
	pacedID := lane.newID()
	stop = watch(time.Second, pollSlowlog)
	ps, c, err := ss.paced(r.dur(0.2), s.pacedRate, 4, r.tr, pacedID)
	stop()
	pollSlowlog() // the tail of the phase, and all of a phase shorter than the period
	if err == nil {
		err = pollErr
	}
	if err != nil {
		return err
	}
	lane.record("phase.paced-traced", pacedID, 0, 0, ps.start, ps.end)
	r.phase("paced-traced", r.dur(0.2).Seconds(), c)
	r.rep.PacedRate = ps.rate
	var explained float64
	for _, stage := range []string{"read", "route", "lease", "exec", "queue"} {
		mean := 0.0
		if stageN > 0 {
			mean = stageSum[stage] / float64(stageN)
		}
		r.set("server.stage_"+stage+"_ns", mean, stageN)
		if stage != "read" { // read is mostly the wait for the next request to arrive
			explained += mean
		}
	}
	r.set("server.unaccounted_ns", ps.p50-explained, ps.samples)
	r.set("p99_us", ps.p99/1e3, ps.samples)
	r.na("oa_over_norecl") // no NoRecl-backed server exists to take the ratio against
	r.set("gen.late_p99_us", ps.lateP99/1e3, ps.ticks)
	r.note("traced paced latency: p50 %.1f us, p99 %.1f us over %d samples at %d req/s",
		ps.p50/1e3, ps.p99/1e3, ps.samples, ps.rate)

	final, err := ss.ctl.stats()
	if err != nil {
		return err
	}
	for _, op := range []string{"get", "put"} {
		l := final.Latency[op]
		r.set("server."+op+"_mean_ns", float64(l.MeanNs), int(l.Count))
		r.set("server."+op+"_p99_ns", float64(l.P99Ns), int(l.Count))
	}
	if final.Cache == nil {
		r.na(cacheDerived...)
		return nil
	}
	var gets, hits int64
	for _, p := range r.rep.Phases[len(r.rep.Phases)-2:] { // sat-traced and paced-traced
		gets, hits = gets+p.Counts.Gets, hits+p.Counts.Hits
	}
	r.set("ttlcache.hit_share", float64(hits)/float64(max(gets, 1)), int(gets))
	r.set("ttlcache.expired", float64(final.Cache.Expired), 1)
	r.set("ttlcache.evicted", float64(final.Cache.Evicted), 1)
	r.set("ttlcache.reliefs", float64(final.Cache.Reliefs), 1)
	r.set("ttlcache.sweeps", float64(final.Cache.Sweeps), 1)
	return nil
}

// compareListeners sends one GET-only stream to the binary listener and
// then to the RESP listener of the same cache-less server, on entries
// written over RESP (the binary side addresses them by the FNV hash the
// server applies to RESP keys). The mixed workloads differ in mix,
// cache and protocol at once; this differs in the listener alone.
func (s serveSpec) compareListeners(r *run, ss *serveSession, d time.Duration) error {
	const keys = 16384
	spec := streamSpec{universe: keys, theta: 0.99, preload: keys / serveConns, mix: opMix{get: 1}}
	viaBin := binCodec{
		keyOf: func(idx uint32) uint64 { return fnv1a(respKey(nil, idx)) },
		val:   respCodec{}.value,
	}
	run := func(name string, cd codec, addr string, models []*connModel, preload bool) ([]*connModel, float64, error) {
		side := &serveSession{proc: ss.proc}
		defer side.closeConns()
		var used []*connModel
		for conn := 0; conn < serveConns; conn++ {
			c, err := dial(addr, cd, conn, serveConns)
			if err != nil {
				return nil, 0, err
			}
			m := newConnModel(keys/serveConns, false)
			if models != nil {
				copy(m.vals, models[conn].vals)
			}
			if preload {
				c.use(genPreload(cd, r.cfg.seed, spec, conn, serveConns), m)
				if err := c.sendAll(serveWindow); err != nil {
					return nil, 0, err
				}
			}
			c.use(genStream(cd, r.cfg.seed, spec, conn, serveConns, r.streamLen()/4), m)
			side.clients, used = append(side.clients, c), append(used, m)
		}
		rates, c, err := side.closed(d, sliceWidth(d))
		if err != nil {
			return nil, 0, err
		}
		r.phase(name, d.Seconds(), c)
		return used, median(rates), nil
	}
	models, respRate, err := run("get-only-resp", respCodec{}, ss.proc.respAddr, nil, true)
	if err != nil {
		return err
	}
	_, binRate, err := run("get-only-binary", viaBin, ss.proc.addr, models, false)
	if err != nil {
		return err
	}
	r.set("server.bin_ns_per_req", 1e9/binRate, 10)
	r.set("server.resp_ns_per_req", 1e9/respRate, 10)
	return nil
}
