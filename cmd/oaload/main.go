// Command oaload drives an oaserver with pipelined load: -conns
// concurrent connections, each keeping -window requests in flight over a
// mixed GET/PUT/DEL/CAS workload, reconnecting after every -burst
// requests so session leases recycle across connections (the server-side
// behavior the load is designed to exercise: more connections over time
// than the fixed thread registry has slots).
//
// -dist zipf draws keys from a YCSB-style Zipf(-theta) popularity curve
// instead of uniform, concentrating traffic on hot keys (and therefore
// hot shards on a sharded server). -resp speaks RESP2 to a -resp
// listener instead of the binary protocol, with the same mix, pipeline
// discipline and summary line.
//
// On GOAWAY (server draining) a connection stops issuing, waits for all
// its outstanding responses — counting any that never arrive as dropped —
// and exits. The final stdout line is machine-readable:
//
//	oaload: ops=N busy=N dropped=N errs=N elapsed=1.234s ops_per_sec=N
//
// -json FILE additionally writes a structured report ("-" = stdout):
// the counters above plus the client-observed latency distribution
// (send→response, including pipeline queueing on both sides) as
// count/mean/p50/p90/p99/p999/max nanoseconds. On the binary protocol
// the report also carries an "exec" section sampled live over STATS:
// the server's peak ring queue depth, ring-full refusals and the batch-size distribution (batches, max, average) the
// executors achieved under this load. The process-level check
// (internal/e2e, TestLifecycle/slo) reads this report and cross-checks it
// against the server's own histograms and batching counters.
//
// Exit status is nonzero when any response was dropped, any hard error
// occurred, or no operations completed.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/trace"
)

// report is the -json document. Latency reuses the server's CmdLatency
// shape so gate tooling parses one schema for both sides.
type report struct {
	Protocol  string            `json:"protocol"`
	Conns     int               `json:"conns"`
	Window    int               `json:"window"`
	Ops       uint64            `json:"ops"`
	Busy      uint64            `json:"busy"`
	Dropped   uint64            `json:"dropped"`
	Errs      uint64            `json:"errs"`
	ElapsedNs int64             `json:"elapsed_ns"`
	OpsPerSec float64           `json:"ops_per_sec"`
	Latency   server.CmdLatency `json:"latency"`
	Exec      *execReport       `json:"exec,omitempty"`
	Health    *healthReport     `json:"health,omitempty"`
}

// execReport summarizes the server's batched-execution pipeline as seen
// over STATS polls during the load: peak ring occupancy and the batch
// size distribution the executors actually achieved. Binary protocol
// only (a RESP -addr has no STATS op); nil when the poll never landed.
type execReport struct {
	RingCap       int     `json:"ring_cap"`
	MaxQueueDepth int     `json:"max_queue_depth"`
	RingFull      uint64  `json:"ring_full"`
	Batches       uint64  `json:"batches"`
	BatchedOps    uint64  `json:"batched_ops"`
	MaxBatch      uint64  `json:"max_batch"`
	AvgBatch      float64 `json:"avg_batch"`
}

// healthReport summarizes the server's health engine as seen over the
// STATS polls: the state the system settled into after the load ended
// (the sampler keeps polling up to healthSettle past the last request
// so clear-hysteresis can run out), the server's total transition
// count, how many transitions happened during this run's polling
// window, and every distinct state the polls caught. Absent when the
// server runs without a flight recorder (-flight-interval 0) or over
// RESP (no STATS op).
// healthSettle bounds how long the sampler waits after the load stops
// for the health state to return to ok: the default engine clears a
// rule after 8 calm ticks at 250ms, so 6s covers it with margin while
// keeping a genuinely stuck degraded state from hanging the report.
const healthSettle = 6 * time.Second

type healthReport struct {
	Final       string `json:"final"`
	Transitions uint64 `json:"transitions"`
	Observed    uint64 `json:"transitions_observed"`
	StatesSeen  string `json:"states_seen"`
	// Firing is the rules firing at the final poll, with the values that
	// fire them: a consumer refusing a non-ok report can say why.
	Firing []firingRule `json:"firing,omitempty"`
}

type firingRule struct {
	Name      string  `json:"name"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
}

// sampleStats polls STATS on its own connection until stop closes,
// tracking the peak per-executor ring depth and the health-state
// timeline, and returns the final counters. The poll connection is
// read-only load: STATS is answered on the reader, never enqueued, so
// it does not perturb the rings.
func sampleStats(addr string, stop <-chan struct{}) (*execReport, *healthReport) {
	c, err := server.Dial(addr, 4)
	if err != nil {
		return nil, nil
	}
	defer c.Close()
	var rep *execReport
	var hrep *healthReport
	var firstTransitions uint64
	var settle time.Time
	seen := map[string]bool{}
	for final := false; ; {
		raw, err := c.Stats()
		if err != nil {
			return rep, hrep
		}
		var snap struct {
			Server struct {
				RingCap    int    `json:"ring_cap"`
				RingDepth  []int  `json:"ring_depth"`
				RingFull   uint64 `json:"ring_full"`
				Batches    uint64 `json:"exec_batches"`
				BatchedOps uint64 `json:"exec_batched_ops"`
				MaxBatch   uint64 `json:"exec_max_batch"`
			} `json:"server"`
			Health *struct {
				State       string `json:"state"`
				Transitions uint64 `json:"transitions"`
				Rules       []struct {
					firingRule
					Firing bool `json:"firing"`
				} `json:"rules"`
			} `json:"health"`
		}
		if json.Unmarshal(raw, &snap) != nil {
			return rep, hrep
		}
		if h := snap.Health; h != nil {
			if hrep == nil {
				hrep = &healthReport{}
				firstTransitions = h.Transitions
			}
			if !seen[h.State] {
				seen[h.State] = true
				if hrep.StatesSeen != "" {
					hrep.StatesSeen += ","
				}
				hrep.StatesSeen += h.State
			}
			hrep.Final = h.State
			hrep.Transitions = h.Transitions
			hrep.Observed = h.Transitions - firstTransitions
			hrep.Firing = nil
			for _, r := range h.Rules {
				if r.Firing {
					hrep.Firing = append(hrep.Firing, r.firingRule)
				}
			}
		}
		s := snap.Server
		if rep == nil {
			rep = &execReport{RingCap: s.RingCap}
		}
		for _, d := range s.RingDepth {
			if d > rep.MaxQueueDepth {
				rep.MaxQueueDepth = d
			}
		}
		rep.RingFull = s.RingFull
		rep.Batches, rep.BatchedOps, rep.MaxBatch = s.Batches, s.BatchedOps, s.MaxBatch
		if s.Batches > 0 {
			rep.AvgBatch = float64(s.BatchedOps) / float64(s.Batches)
		}
		if final {
			// Counters now cover the whole run. Health rules clear with
			// hysteresis (ClearTicks consecutive calm ticks), so a rule
			// legitimately firing at the last request — e.g. backlog
			// growth under a full-tilt run — needs a settle window after
			// the load stops before "final" reflects the steady state.
			if hrep == nil || hrep.Final == "ok" || time.Now().After(settle) {
				return rep, hrep
			}
			time.Sleep(20 * time.Millisecond)
			continue
		}
		select {
		case <-stop:
			final = true // one more poll so the counters cover the whole run
			settle = time.Now().Add(healthSettle)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func latencySummary(h *metrics.Histogram) server.CmdLatency {
	snap := h.Snapshot()
	cl := server.CmdLatency{Count: snap.Count, MaxNs: snap.Max}
	if snap.Count > 0 {
		cl.MeanNs = snap.Sum / snap.Count
		cl.P50Ns = snap.QuantileNs(0.50)
		cl.P90Ns = snap.QuantileNs(0.90)
		cl.P99Ns = snap.QuantileNs(0.99)
		cl.P999Ns = snap.QuantileNs(0.999)
	}
	return cl
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "server address")
		conns    = flag.Int("conns", 64, "concurrent connections")
		window   = flag.Int("window", 128, "pipelined requests in flight per connection")
		burst    = flag.Int("burst", 2000, "requests per connection before reconnecting (0 = never)")
		keys     = flag.Uint64("keys", 4096, "key space size")
		duration = flag.Duration("duration", 2*time.Second, "load duration")
		dist     = flag.String("dist", "uniform", "key distribution: uniform or zipf")
		theta    = flag.Float64("theta", 0.99, "zipfian skew (0 < theta < 1; YCSB default 0.99)")
		resp     = flag.Bool("resp", false, "speak RESP2 instead of the binary protocol")
		jsonOut  = flag.String("json", "", `write a JSON report to this file ("-" = stdout)`)
	)
	flag.Parse()
	if *dist != "uniform" && *dist != "zipf" {
		fmt.Fprintf(os.Stderr, "oaload: unknown -dist %q (want uniform or zipf)\n", *dist)
		os.Exit(2)
	}
	if *theta <= 0 || *theta >= 1 {
		fmt.Fprintf(os.Stderr, "oaload: -theta %v out of range (0, 1)\n", *theta)
		os.Exit(2)
	}

	var ops, busy, dropped, errs atomic.Uint64
	// One shared histogram of client-observed round trips; metrics.
	// Histogram is concurrent, so every worker records into it directly.
	var lat metrics.Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// keyGen builds the per-worker key stream for the chosen distribution.
	keyGen := func(w int, next func() uint64) func() uint64 {
		if *dist == "zipf" {
			z := newZipfian(*keys, *theta, uint64(w)*0xA24BAED4963EE407+1)
			return z.next
		}
		return func() uint64 { return next() % *keys }
	}

	worker := func(w int) {
		defer wg.Done()
		rng := uint64(w)*0x9E3779B97F4A7C15 + 1
		next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
		key := keyGen(w, next)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c, err := server.Dial(*addr, *window)
			if err != nil {
				// During server drain the listener is gone; that's a clean end.
				return
			}
			c.Latency = &lat
			calls := make([]*server.Call, 0, *window)
			settle := func() bool {
				c.Flush()
				ok := true
				for _, ca := range calls {
					if err := ca.Wait(); err != nil {
						dropped.Add(1)
						ok = false
						continue
					}
					if ca.Status == server.StBusy {
						busy.Add(1)
					} else {
						ops.Add(1)
					}
				}
				calls = calls[:0]
				return ok
			}
			sent := 0
			alive := true
			for alive {
				select {
				case <-stop:
					alive = false
					continue
				default:
				}
				if *burst > 0 && sent >= *burst {
					break // reconnect: recycle the session lease
				}
				k := key()
				var ca *server.Call
				var err error
				switch next() % 10 {
				case 0:
					ca, err = c.Del(k)
				case 1:
					ca, err = c.CAS(k, next()%3, next())
				case 2, 3, 4:
					ca, err = c.Put(k, next())
				default:
					ca, err = c.Get(k)
				}
				if err != nil {
					if errors.Is(err, server.ErrGoAway) {
						alive = false // drain announced: settle and exit
						continue
					}
					errs.Add(1)
					alive = false
					continue
				}
				calls = append(calls, ca)
				sent++
				if len(calls) >= *window {
					if !settle() {
						alive = false
					}
				}
			}
			drainExit := c.GoAway()
			settle()
			c.Close()
			if drainExit {
				return
			}
		}
	}

	// respWorker drives the same mix over RESP2: Send/Recv pipelining at
	// -window depth, -BUSY counted like the binary StBusy, reconnects per
	// -burst. RESP has no GOAWAY: a drain surfaces as a cut connection,
	// so in-flight replies lost to it count as dropped.
	respWorker := func(w int) {
		defer wg.Done()
		rng := uint64(w)*0x9E3779B97F4A7C15 + 1
		next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
		key := keyGen(w, next)
		val := func() string { return strconv.FormatUint(next()%1_000_000, 10) }
		for {
			select {
			case <-stop:
				return
			default:
			}
			c, err := server.DialRESP(*addr)
			if err != nil {
				return // listener gone: clean end (drain or server exit)
			}
			// Responses come back in send order, so a circular array of
			// send timestamps (inflight never exceeds the window) pairs
			// each Recv with its Send for the latency histogram.
			stamps := make([]int64, *window)
			var sendSeq, recvSeq uint64
			inflight := 0
			settle := func() bool {
				if err := c.Flush(); err != nil {
					dropped.Add(uint64(inflight))
					inflight = 0
					return false
				}
				ok := true
				for ; inflight > 0; inflight-- {
					v, err := c.Recv()
					if err != nil {
						dropped.Add(uint64(inflight))
						inflight = 0
						return false
					}
					lat.ObserveNs(uint64(trace.Now() - stamps[recvSeq%uint64(*window)]))
					recvSeq++
					switch {
					case v.IsError() && bytes.HasPrefix(v.Str, []byte("BUSY")):
						busy.Add(1)
					case v.IsError():
						errs.Add(1)
						ok = false
					default:
						ops.Add(1)
					}
				}
				return ok
			}
			sent := 0
			alive := true
			for alive {
				select {
				case <-stop:
					alive = false
					continue
				default:
				}
				if *burst > 0 && sent >= *burst {
					break // reconnect: recycle the per-shard session leases
				}
				k := strconv.FormatUint(key(), 10)
				stamps[sendSeq%uint64(*window)] = trace.Now()
				sendSeq++
				switch next() % 10 {
				case 0:
					c.Send("DEL", k)
				case 1:
					c.Send("CAS", k, val(), val())
				case 2, 3, 4:
					c.Send("SET", k, val())
				default:
					c.Send("GET", k)
				}
				inflight++
				sent++
				if inflight >= *window {
					if !settle() {
						alive = false
					}
				}
			}
			settled := settle()
			c.Close()
			if !settled {
				return
			}
		}
	}

	start := time.Now()
	for w := 0; w < *conns; w++ {
		wg.Add(1)
		if *resp {
			go respWorker(w)
		} else {
			go worker(w)
		}
	}
	// The exec sampler stops only after the workers settle so its final
	// poll covers every batched op the load produced.
	var execRep *execReport
	var healthRep *healthReport
	sampStop := make(chan struct{})
	sampDone := make(chan struct{})
	if *jsonOut != "" && !*resp {
		go func() { execRep, healthRep = sampleStats(*addr, sampStop); close(sampDone) }()
	} else {
		close(sampDone)
	}
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	select {
	case <-time.After(*duration):
		close(stop)
		<-workersDone
	case <-workersDone: // server drained us out before the duration
	}
	elapsed := time.Since(start)
	close(sampStop)
	<-sampDone

	rate := float64(ops.Load()) / elapsed.Seconds()
	fmt.Printf("oaload: ops=%d busy=%d dropped=%d errs=%d elapsed=%s ops_per_sec=%.0f\n",
		ops.Load(), busy.Load(), dropped.Load(), errs.Load(),
		elapsed.Round(time.Millisecond), rate)
	if *jsonOut != "" {
		proto := "binary"
		if *resp {
			proto = "resp"
		}
		rep := report{
			Protocol: proto, Conns: *conns, Window: *window,
			Ops: ops.Load(), Busy: busy.Load(), Dropped: dropped.Load(), Errs: errs.Load(),
			ElapsedNs: elapsed.Nanoseconds(), OpsPerSec: rate,
			Latency: latencySummary(&lat),
			Exec:    execRep,
			Health:  healthRep,
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			out = append(out, '\n')
			if *jsonOut == "-" {
				_, err = os.Stdout.Write(out)
			} else {
				err = os.WriteFile(*jsonOut, out, 0o644)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "oaload: writing -json report:", err)
			os.Exit(1)
		}
	}
	if dropped.Load() > 0 || errs.Load() > 0 || ops.Load() == 0 {
		os.Exit(1)
	}
}
