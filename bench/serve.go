package main

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// The load on a serve workload: one generator process, two pipelined
// connections — what two cores can drive without the generator
// competing with itself.
const (
	serveConns  = 2
	serveWindow = 64
	// streamRequests bounds the requests pre-encoded per connection; a
	// phase that outlasts them starts over at the first (the model is
	// live, so the oracle stays exact across the wrap).
	streamRequests = 1 << 21
)

// serveSpec describes a serve workload.
type serveSpec struct {
	codec  codec
	resp   bool     // the load speaks RESP; otherwise the binary protocol
	args   []string // deployment flags for oaserver
	stream streamSpec
	lossy  bool // cache semantics: see connModel
	// pacedRate is the open-loop phase's rate in requests/s over all
	// connections. It is frozen here, not derived per run, so that runs
	// are comparable: a rate that follows measured throughput would hide
	// a slowdown. Chosen once at 30–50% of the measured closed-loop
	// throughput on the two-core reference host, with the generator's
	// p99 lateness under 1 ms.
	pacedRate int
	// likeForLike adds the GET-only comparison of the two listeners to
	// the traced run (it needs a cache-less server).
	likeForLike bool
}

var serveBinMixed = serveSpec{
	codec: binCodec{keyOf: func(idx uint32) uint64 { return mix64(uint64(idx)) }},
	args:  []string{"-capacity", fmt.Sprint(serveCapacity)},
	stream: streamSpec{
		universe: binKeys, theta: 0.99, preload: binKeys / serveConns,
		mix: opMix{get: 0.80, put: 0.10, del: 0.05}, // the remaining 0.05 is CAS
	},
	pacedRate:   150000,
	likeForLike: true,
}

var serveRespCache = serveSpec{
	codec: respCodec{},
	resp:  true,
	args: []string{"-capacity", fmt.Sprint(serveCapacity), "-cache",
		"-ttl", cacheTTL.String(), "-max-entries", fmt.Sprint(cacheMaxEntries)},
	stream: streamSpec{
		universe: cacheUniverse, theta: 0.99, preload: cacheMaxEntries / 2 / serveConns,
		mix: opMix{get: 0.80, put: 0.15, del: 0.05},
	},
	lossy:     true,
	pacedRate: 280000,
}

// serveSession is one spawned server with its load and control
// connections.
type serveSession struct {
	proc    *serverProc
	ctl     *control
	clients []*client
	setup   time.Duration
}

// inputs are a workload's pre-encoded requests, generated from the seed
// before anything is timed.
type serveInputs struct {
	preload, main []*reqStream
}

func (s serveSpec) inputs(seed uint64, perConn int) serveInputs {
	var in serveInputs
	for conn := 0; conn < serveConns; conn++ {
		in.preload = append(in.preload, genPreload(s.codec, seed, s.stream, conn, serveConns))
		in.main = append(in.main, genStream(s.codec, seed, s.stream, conn, serveConns, perConn))
	}
	return in
}

// start spawns a server, connects, and preloads the keys. The elapsed
// time is the workload's set-up cost: process start, arena sizing,
// listen, connect, preload.
func (s serveSpec) start(bin string, traced bool, in serveInputs) (*serveSession, error) {
	t0 := time.Now()
	proc, err := startServer(bin, serverOpts{args: s.args, resp: s.resp || s.likeForLike, traced: traced})
	if err != nil {
		return nil, err
	}
	ss := &serveSession{proc: proc}
	fail := func(err error) (*serveSession, error) {
		ss.abandon()
		return nil, err
	}
	addr := proc.addr
	if s.resp {
		addr = proc.respAddr
	}
	for conn := 0; conn < serveConns; conn++ {
		c, err := dial(addr, s.codec, conn, serveConns)
		if err != nil {
			return fail(err)
		}
		c.use(in.preload[conn], newConnModel(s.stream.universe/serveConns, s.lossy))
		ss.clients = append(ss.clients, c)
	}
	if ss.ctl, err = dialControl(proc.addr); err != nil {
		return fail(err)
	}
	if err := ss.each(func(c *client) error { return c.sendAll(serveWindow) }); err != nil {
		return fail(err)
	}
	for conn, c := range ss.clients {
		c.use(in.main[conn], c.m)
	}
	ss.setup = time.Since(t0)
	return ss, nil
}

// each runs fn on every client concurrently and returns the first error.
func (ss *serveSession) each(fn func(c *client) error) error {
	errs := make([]error, len(ss.clients))
	var wg sync.WaitGroup
	for i, c := range ss.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ledger collects the clients' counts since the last call, failing on
// the first oracle violation.
func (ss *serveSession) ledger() (counts, error) {
	var c counts
	for _, cl := range ss.clients {
		c.add(cl.takeCounts())
	}
	for _, cl := range ss.clients {
		if cl.violation != "" {
			return c, oracleErr("%s", cl.violation)
		}
	}
	return c, nil
}

func (ss *serveSession) closeConns() {
	for _, c := range ss.clients {
		c.nc.Close()
	}
	ss.clients = nil
	if ss.ctl != nil {
		ss.ctl.nc.Close()
		ss.ctl = nil
	}
}

// abandon tears the session down on an error path.
func (ss *serveSession) abandon() {
	ss.closeConns()
	ss.proc.kill()
}

// stop closes the connections and drains the server, checking its exit
// status and final ledger.
func (ss *serveSession) stop() error {
	ss.closeConns()
	_, err := ss.proc.stop()
	return err
}

// sendAll sends the whole installed stream once, window requests in
// flight, and waits for every reply.
func (c *client) sendAll(window int) error {
	n := c.s.len()
	for sent := 0; sent < n; {
		if k := min(window-(c.pos-c.acked), n-sent); k > 0 {
			if err := c.send(k); err != nil {
				return err
			}
			sent += k
		}
		if _, err := c.recv(nil); err != nil {
			return err
		}
	}
	c.drain(time.Now().Add(5 * time.Second))
	return nil
}

// closed runs the closed loop on every connection for d and returns the
// completion rate of each width-long slice.
func (ss *serveSession) closed(d, width time.Duration) (rates []float64, c counts, err error) {
	t0 := time.Now()
	n := int(d / width)
	scs := make([]*sliceCounter, len(ss.clients))
	for i := range scs {
		scs[i] = newSliceCounter(t0, width, n)
	}
	until := t0.Add(time.Duration(n) * width)
	err = ss.each(func(c *client) error { return c.closedLoop(serveWindow, until, scs[c.conn]) })
	if err != nil {
		return nil, c, err
	}
	for i := 0; i < n; i++ {
		var k int64
		for _, sc := range scs {
			k += sc.n[i]
		}
		rates = append(rates, float64(k)/width.Seconds())
	}
	c, err = ss.ledger()
	return rates, c, err
}

// pacedStats is what the open-loop phase measured over all connections.
type pacedStats struct {
	rate        int // requests/s actually scheduled
	p50, p99    float64
	tail, tailP float64
	samples     int
	lateP99     float64 // ns
	start, end  time.Time
	unanswered  int
	ticks       int // bursts scheduled, over all connections
}

// paced runs the open loop for d at rate requests/s and summarises
// latency per window.
func (ss *serveSession) paced(d time.Duration, rate, windows int, tr *tracer, parent uint64) (pacedStats, counts, error) {
	perTick := max(rate/len(ss.clients)/int(time.Second/tick), 1)
	ticks := int(d / tick)
	ps := pacedStats{rate: perTick * len(ss.clients) * int(time.Second/tick), ticks: ticks * len(ss.clients)}
	results := make([]pacedResult, len(ss.clients))
	ps.start = time.Now().Add(2 * tick)
	err := ss.each(func(c *client) error {
		var spanFn func(req int, due, end time.Time)
		if lane := tr.lane(1 + c.conn); lane != nil {
			spanFn = func(req int, due, end time.Time) { lane.record("request", 0, parent, uint64(req), due, end) }
		}
		res, err := c.openLoop(ps.start, ticks, perTick, spanFn)
		results[c.conn] = res
		return err
	})
	ps.end = time.Now()
	if err != nil {
		return ps, counts{}, err
	}
	wins := make([][]uint32, windows)
	var late []uint32
	for _, res := range results {
		late = append(late, res.late...)
		per := (len(res.lat) + windows - 1) / windows
		for w := 0; w < windows; w++ {
			for _, ns := range res.lat[min(w*per, len(res.lat)):min((w+1)*per, len(res.lat))] {
				if ns == 0 {
					ps.unanswered++
					continue
				}
				wins[w] = append(wins[w], ns)
			}
		}
	}
	ps.p50, ps.p99, ps.tail, ps.tailP, ps.samples = windowPercentiles(wins)
	slices.Sort(late)
	ps.lateP99 = percentileNs(late, 0.99)
	c, err := ss.ledger()
	return ps, c, err
}

// sliceWidth cuts a closed-loop phase into ten slices; the phase's rate
// is the median slice's.
func sliceWidth(d time.Duration) time.Duration { return d / 10 }

// run measures one serve workload end to end: set-up (several times, the
// median reported), warm-up, the closed-loop saturation phase, the
// open-loop paced phase.
func (s serveSpec) run(r *run) error {
	bin, err := buildServer(r.cfg.root)
	if err != nil {
		return err
	}
	in := s.inputs(r.cfg.seed, r.streamLen())
	if r.cfg.trace {
		return s.traced(r, bin, in)
	}

	// Set-up is measured on throwaway servers before and after the
	// measured phases (so the samples do not all see the host's speed of
	// one second), and on the server that is then measured.
	var setups []float64
	throwaway := func(n int) error {
		for i := 0; i < n; i++ {
			ss, err := s.start(bin, false, in)
			if err != nil {
				return err
			}
			setups = append(setups, ss.setup.Seconds())
			if _, err := ss.ledger(); err != nil {
				ss.abandon()
				return err
			}
			if err := ss.stop(); err != nil {
				return err
			}
		}
		return nil
	}
	extra := 0
	if r.repeatSetup() {
		extra = 5
	}
	if err := throwaway(extra / 2); err != nil {
		return err
	}
	ss, err := s.start(bin, false, in)
	if err != nil {
		return err
	}
	defer func() {
		if ss != nil {
			ss.abandon()
		}
	}()
	setups = append(setups, ss.setup.Seconds())
	c, err := ss.ledger()
	if err != nil {
		return err
	}
	r.phase("preload", ss.setup.Seconds(), c)

	warm, sat, paced := r.dur(0.1), r.dur(0.5), r.dur(0.5)
	if _, c, err = ss.closed(warm, sliceWidth(sat)); err != nil {
		return err
	}
	r.phase("warmup", warm.Seconds(), c)

	rates, c, err := ss.closed(sat, sliceWidth(sat))
	if err != nil {
		return err
	}
	r.phase("sat", sat.Seconds(), c)
	r.series("sat_slice_ops_per_s", rates)
	r.set("ops_per_s", median(rates), len(rates))

	ps, c, err := ss.paced(paced, s.pacedRate, 10, nil, 0)
	if err != nil {
		return err
	}
	r.phase("paced", paced.Seconds(), c)
	r.rep.PacedRate = ps.rate
	r.set("p50_us", ps.p50/1e3, ps.samples)
	r.set("p99_us", ps.p99/1e3, ps.samples)
	r.set("gen.late_p99_us", ps.lateP99/1e3, ps.ticks)
	r.note("paced latency: p%.6g = %.1f us over %d samples at %d req/s; %d unanswered",
		ps.tailP*100, ps.tail/1e3, ps.samples, ps.rate, ps.unanswered)

	hwm, err := statusKB(ss.proc.cmd.Process.Pid, "VmHWM")
	if err != nil {
		return err
	}
	r.set("rss_mb", hwm/1024, 1)
	err = ss.stop()
	ss = nil
	if err != nil {
		return err
	}
	if err := throwaway(extra - extra/2); err != nil {
		return err
	}
	r.set("setup_s", median(setups), len(setups))
	return nil
}
