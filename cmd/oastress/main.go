// Command oastress is a long-running correctness harness: it hammers a
// chosen (structure, scheme) pair with random operations from many
// goroutines while tracking per-key success counts, then verifies the
// final structure against the only histories a linearizable set allows.
// It exits non-zero on any violation. Use it to soak-test the reclamation
// schemes far beyond what `go test` runs:
//
//	oastress -structure Hash -scheme OA -threads 8 -duration 30s
//	oastress -all -duration 2s
//	oastress -http :8080 -snapshot 1s -duration 5m   # live /metrics + pprof
//	oastress -trace trace.json -duration 10s         # Perfetto-loadable dump
//
// With -http the process serves /metrics (Prometheus text), /trace
// (protocol event timeline) and /debug/pprof/ while soaking; with
// -snapshot it prints a live progress line per interval; with -trace it
// writes the last soak's reclamation event trace in Chrome trace_event
// format on exit. SIGINT/SIGTERM stop the current soak early but still run
// its verification pass, dump the final statistics — the /metrics
// document, per-op latency histograms included, and the traced-event
// total — and exit 130; a second signal kills the process.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/linearize"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/sizing"
	"repro/internal/smr"
	"repro/internal/trace"
)

// interrupted closes on the first SIGINT/SIGTERM. activeReg is the metric
// registry of the run currently in flight; the HTTP listener reads it
// through an atomic pointer so -all can swap registries between runs
// without restarting the server.
var (
	interrupted  = make(chan struct{})
	activeReg    atomic.Pointer[obs.Registry]
	snapInterval time.Duration
	poolShards   int    // -shards: OA block-pool shard override, 0 = default
	tracePath    string // -trace: Chrome trace_event dump target, "" = off
)

// wait sleeps for d, returning false early if the process is interrupted.
func wait(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-interrupted:
		return false
	}
}

func isInterrupted() bool {
	select {
	case <-interrupted:
		return true
	default:
		return false
	}
}

type keyCounter struct {
	ins atomic.Int64
	del atomic.Int64
	_   [6]int64 // pad
}

func stress(st harness.Structure, sc smr.Scheme, threads int, d time.Duration, keys int) error {
	set, err := harness.Build(harness.BuildConfig{
		Structure: st, Scheme: sc, Threads: threads, Delta: 16384, Shards: poolShards,
	})
	if err != nil {
		return err
	}
	counters := make([]keyCounter, keys+1)

	// Per-worker counter blocks: ops are published every 256 operations so
	// the HTTP endpoint and the snapshot reporter see live progress.
	ts := obs.NewThreadStats(threads)
	reg := obs.NewRegistry()
	harness.Observe(reg, set)
	reg.ThreadCounters("stress", ts, obs.Ops)
	// One shared histogram per operation kind (obs.Histogram is
	// concurrent); every 8th op per worker is timed, so the histograms in
	// the final dump come from the soak itself, not a separate run.
	var lat [3]obs.Histogram
	reg.Histogram("stress_contains_latency_seconds", "sampled Contains latency during the soak", &lat[0])
	reg.Histogram("stress_insert_latency_seconds", "sampled Insert latency during the soak", &lat[1])
	reg.Histogram("stress_delete_latency_seconds", "sampled Delete latency during the soak", &lat[2])
	activeReg.Store(reg)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := set.Session(id)
			pt := ts.At(id)
			rng := uint64(id)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
			n := uint64(0)
			for {
				if n&0xFF == 0 {
					pt.Store(obs.Ops, n)
					if stop.Load() {
						break
					}
				}
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := rng%uint64(keys) + 1
				timed := n&7 == 0
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				kind := (rng >> 40) % 3
				switch kind {
				case 0:
					if s.Insert(k) {
						counters[k].ins.Add(1)
					}
				case 1:
					if s.Delete(k) {
						counters[k].del.Add(1)
					}
				default:
					s.Contains(k)
				}
				if timed {
					// kind 0=insert, 1=delete, 2=contains; lat is ordered
					// contains/insert/delete, hence the rotation.
					lat[(kind+1)%3].Observe(time.Since(t0))
				}
				n++
			}
			pt.Store(obs.Ops, n)
		}(id)
	}

	var snapStop chan struct{}
	var snapWG sync.WaitGroup
	if snapInterval > 0 {
		snapStop = make(chan struct{})
		snap := &harness.Snapshotter{W: os.Stdout, Every: snapInterval}
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			snap.Run(snapStop, func() uint64 { return ts.Total(obs.Ops) }, set.Stats)
		}()
	}

	t0 := time.Now()
	wait(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0)
	if snapStop != nil {
		close(snapStop)
		snapWG.Wait()
	}

	// Conservation: for every key, successful inserts - successful deletes
	// must be 0 or 1, and must match final membership.
	probe := set.Session(0)
	for k := 1; k <= keys; k++ {
		diff := counters[k].ins.Load() - counters[k].del.Load()
		if diff != 0 && diff != 1 {
			return fmt.Errorf("%s/%v key %d: %d inserts vs %d deletes — impossible history",
				st, sc, k, counters[k].ins.Load(), counters[k].del.Load())
		}
		if got, want := probe.Contains(uint64(k)), diff == 1; got != want {
			return fmt.Errorf("%s/%v key %d: Contains=%v but history says %v",
				st, sc, k, got, want)
		}
	}
	stats := set.Stats()
	fmt.Printf("OK   %-14s %-8v %9.2f Mops/s  recycled=%-9d phases=%-6d restarts=%d\n",
		st, sc, float64(ts.Total(obs.Ops))/elapsed.Seconds()/1e6, stats.Recycled, stats.Phases, stats.Restarts)
	return nil
}

// stressQueue soaks the MS queue: per-producer FIFO order and
// exactly-once consumption, verified on the fly.
func stressQueue(sc smr.Scheme, threads int, d time.Duration) error {
	q, err := queue.New(sc, sizing.Config{MaxThreads: threads, Capacity: 1 << 16})
	if err != nil {
		return err
	}
	producers := threads / 2
	if producers == 0 {
		producers = 1
	}
	var stop atomic.Bool
	var enq, deq atomic.Uint64
	errs := make(chan error, threads)
	var wg sync.WaitGroup
	var seen sync.Map // value -> struct{}
	lastPerProducer := make([][]atomic.Int64, threads)
	for c := 0; c < threads; c++ {
		lastPerProducer[c] = make([]atomic.Int64, producers)
		for p := range lastPerProducer[c] {
			lastPerProducer[c][p].Store(-1)
		}
	}
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := q.QueueSession(id)
			if id < producers {
				for i := uint64(0); !stop.Load(); i++ {
					if enq.Load()-deq.Load() > 1<<14 { // backlog bound
						runtime.Gosched()
						continue
					}
					s.Enqueue(uint64(id)<<40 | i)
					enq.Add(1)
				}
				return
			}
			for !stop.Load() {
				v, ok := s.Dequeue()
				if !ok {
					continue
				}
				deq.Add(1)
				if _, dup := seen.LoadOrStore(v, struct{}{}); dup {
					errs <- fmt.Errorf("queue/%v: value %#x dequeued twice", sc, v)
					return
				}
				p := int(v >> 40)
				i := int64(v & (1<<40 - 1))
				if prev := lastPerProducer[id][p].Load(); i <= prev {
					errs <- fmt.Errorf("queue/%v: producer %d order broken: %d after %d", sc, p, i, prev)
					return
				}
				lastPerProducer[id][p].Store(i)
			}
		}(id)
	}
	t0 := time.Now()
	wait(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0)
	select {
	case err := <-errs:
		return err
	default:
	}
	fmt.Printf("OK   %-14s %-8v %9.2f Mops/s  (FIFO + exactly-once verified)\n",
		"Queue", sc, float64(enq.Load()+deq.Load())/elapsed.Seconds()/1e6)
	return nil
}

// stressLinearizable records real concurrent histories through the
// Wing-Gong checker in rounds until the soak time elapses — the strongest
// (and most expensive) oracle, applied continuously.
func stressLinearizable(st harness.Structure, sc smr.Scheme, threads int, d time.Duration) error {
	deadline := time.Now().Add(d)
	rounds := 0
	for time.Now().Before(deadline) && !isInterrupted() {
		set, err := harness.Build(harness.BuildConfig{
			Structure: st, Scheme: sc, Threads: threads, Delta: 4096, Shards: poolShards,
		})
		if err != nil {
			return err
		}
		rec := linearize.NewRecorder(set)
		keyBase := uint64(rounds*64 + 1)
		var wg sync.WaitGroup
		for id := 0; id < threads; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				s := rec.Session(id)
				rng := rand.New(rand.NewSource(int64(rounds*threads + id)))
				for i := 0; i < 4; i++ {
					k := keyBase + uint64(rng.Intn(4))
					switch rng.Intn(3) {
					case 0:
						s.Insert(k)
					case 1:
						s.Delete(k)
					default:
						s.Contains(k)
					}
				}
			}(id)
		}
		wg.Wait()
		if r := linearize.Check(rec.History()); !r.Ok {
			return fmt.Errorf("%s/%v round %d: non-linearizable history at key %d: %v",
				st, sc, rounds, r.Key, r.Witness)
		}
		rounds++
	}
	fmt.Printf("OK   %-14s %-8v %9d recorded rounds linearizable\n", st, sc, rounds)
	return nil
}

func main() {
	var (
		structure = flag.String("structure", "Hash", "LinkedList5K | LinkedList128 | Hash | SkipList | Queue")
		scheme    = flag.String("scheme", "OA", "NoRecl | OA | HP | EBR | Anchors")
		threads   = flag.Int("threads", 8, "worker goroutines")
		duration  = flag.Duration("duration", 5*time.Second, "per-configuration soak time")
		keys      = flag.Int("keys", 512, "key-space size (small = high contention)")
		all       = flag.Bool("all", false, "soak every supported (structure, scheme) pair")
		lin       = flag.Bool("linearize", false, "record histories and run the Wing-Gong checker instead of conservation counting")
		httpAddr  = flag.String("http", "", "serve /metrics, /trace and /debug/pprof/ on this address (e.g. :8080)")
		snapshot  = flag.Duration("snapshot", 0, "print a live progress line at this interval (0 = off)")
		shards    = flag.Int("shards", 0, "OA block-pool shard count (0 = min(threads, GOMAXPROCS) rounded to a power of two)")
		traceOut  = flag.String("trace", "", "write the last soak's protocol event trace (Chrome trace_event JSON, loadable in Perfetto) to this file")
	)
	flag.Parse()
	snapInterval = *snapshot
	poolShards = *shards
	tracePath = *traceOut

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "interrupt: stopping current soak, running verification (send again to kill)")
		close(interrupted)
		signal.Stop(sigc) // restore default disposition: a second signal kills
	}()

	if *httpAddr != "" || snapInterval > 0 {
		// Hot-path counters are only worth maintaining when someone is
		// looking at them.
		obs.SetEnabled(true)
	}
	if *httpAddr != "" || tracePath != "" {
		// Protocol event tracing feeds the /trace endpoint and the -trace
		// dump; all record sites sit on reclamation slow paths.
		trace.SetEnabled(true)
	}
	if *httpAddr != "" {
		// Bind before announcing, so -http :0 prints the port it got.
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "obs http:", err)
			os.Exit(2)
		}
		go http.Serve(ln, obs.HandlerFor(activeReg.Load))
		fmt.Printf("observability on http://%s/metrics /trace /debug/pprof/\n", ln.Addr())
	}

	if *all {
		failed := false
		for _, st := range harness.Structures {
			for _, sc := range smr.Schemes {
				if isInterrupted() {
					break
				}
				if !st.Supports(sc) {
					continue
				}
				run := stress
				if *lin {
					run = func(st harness.Structure, sc smr.Scheme, threads int, d time.Duration, _ int) error {
						return stressLinearizable(st, sc, threads, d)
					}
				}
				if err := run(st, sc, *threads, *duration, *keys); err != nil {
					fmt.Fprintln(os.Stderr, "FAIL", err)
					failed = true
				}
			}
		}
		for _, sc := range []smr.Scheme{smr.NoRecl, smr.OA, smr.HP, smr.EBR} {
			if isInterrupted() {
				break
			}
			if err := stressQueue(sc, *threads, *duration); err != nil {
				fmt.Fprintln(os.Stderr, "FAIL", err)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
		finish()
		return
	}

	sc, err := smr.ParseScheme(*scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *structure == "Queue" {
		if err := stressQueue(sc, *threads, *duration); err != nil {
			fmt.Fprintln(os.Stderr, "FAIL", err)
			os.Exit(1)
		}
		finish()
		return
	}
	if *lin {
		if err := stressLinearizable(harness.Structure(*structure), sc, *threads, *duration); err != nil {
			fmt.Fprintln(os.Stderr, "FAIL", err)
			os.Exit(1)
		}
		finish()
		return
	}
	if err := stress(harness.Structure(*structure), sc, *threads, *duration, *keys); err != nil {
		fmt.Fprintln(os.Stderr, "FAIL", err)
		os.Exit(1)
	}
	finish()
}

// dumpTrace writes the last run's protocol event trace to -trace's target
// in Chrome trace_event format.
func dumpTrace() {
	if tracePath == "" {
		return
	}
	reg := activeReg.Load()
	if reg == nil {
		return
	}
	f, err := os.Create(tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace dump:", err)
		return
	}
	defer f.Close()
	if err := reg.WriteTraceChrome(f); err != nil {
		fmt.Fprintln(os.Stderr, "trace dump:", err)
		return
	}
	fmt.Printf("wrote trace to %s (%d events recorded; load in chrome://tracing or ui.perfetto.dev)\n",
		tracePath, reg.TraceTotal())
}

// finish dumps the trace (if requested) and, when the process was
// interrupted, the final statistics of the last run — its /metrics
// document and the traced-event total — before exiting 130 (the
// conventional SIGINT status), so an operator killing a long soak still
// gets everything it accumulated.
func finish() {
	dumpTrace()
	if !isInterrupted() {
		return
	}
	if reg := activeReg.Load(); reg != nil {
		fmt.Println("interrupted — final stats (Prometheus text):")
		_ = reg.WritePrometheus(os.Stdout)
		fmt.Printf("traced events: %d\n", reg.TraceTotal())
	}
	os.Exit(130)
}
