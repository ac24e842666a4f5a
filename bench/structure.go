package main

import (
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro/oamem"
)

// setWorkers is the load on a structure workload, for OA and NoRecl alike
// (the paper's ratio is taken at equal thread count). It is one, not the
// two the host's core count suggests: on the reference host a second
// worker completes fewer operations than one alone (11.0M against 13.2M
// ops/s on hash-update) and takes the run-to-run spread of OA/NoRecl from
// 2.5% to 18–26%, because how the hypervisor places the two virtual CPUs
// decides what a shared cache line costs. See README.md.
const setWorkers = 1

// paperDelta is the paper's default allocation headroom δ: under OA a
// reclamation phase runs about once per δ allocations (§5, Figure 1).
const paperDelta = 50000

// setSpec describes a structure workload.
type setSpec struct {
	build         func(opts ...oamem.Option) (*oamem.Structure, error)
	prefill, keys int
	contains, ins float64 // shares of the mix; the rest deletes
}

// A structure run warms up for a tenth of -seconds, then alternates
// setSlices slices of OA and NoRecl (a traced run: half as many).
const setSlices = 40

var hashUpdate = setSpec{
	build:   oamem.HashSet,
	prefill: 10000, keys: 20000,
	contains: 1.0 / 3, ins: 1.0 / 3, // the paper's Figure 8 mix
}

var skiplistRead = setSpec{
	build:   oamem.SkipList,
	prefill: 10000, keys: 20000,
	contains: 0.8, ins: 0.1, // the paper's Figure 1 mix
}

// capacity is the node budget: the live set, δ, and the float the
// per-thread pools hold (the sizing internal/harness gives the paper's
// figures).
func (s setSpec) capacity() int { return s.prefill + paperDelta + 4*setWorkers*126 + 64 }

func (s setSpec) open(scheme oamem.Scheme) (*oamem.Structure, error) {
	return s.build(oamem.WithScheme(scheme), oamem.WithThreads(setWorkers),
		oamem.WithCapacity(s.capacity()), oamem.WithExpected(s.prefill))
}

// setWorker drives one session over its own key partition and checks
// every result against a bitset model of that partition.
type setWorker struct {
	lane   int
	sess   *oamem.Session
	stream *setStream
	model  []uint64
	lat    []uint32 // one sampled operation per batch, ns
	spans  *spanLane
	parent uint64

	ops, insOK, delOK, violations int64
	elapsed                       time.Duration
	violation                     string
}

// run executes batches of batchSize operations until the deadline. One
// operation per batch is timed on its own (NoRecl slices pay for that
// too, so the ratio is not biased); with a span lane every batch is a
// span. Everything the loop writes lives on this goroutine's stack until
// the end: the workers' structs sit side by side on the heap, and
// counters bumped there would bounce one cache line between the cores.
func (w *setWorker) run(until time.Time) {
	stream, sess, model, lat := *w.stream, w.sess, w.model, w.lat[:0]
	var ops, insOK, delOK, violations int64
	start := time.Now()
	batchStart := start
	for {
		for i := 0; i < batchSize; i++ {
			op, key, local := stream.next()
			word, bit := &model[local/64], uint64(1)<<(local%64)
			had := *word&bit != 0
			var t0 time.Time
			if i == 0 {
				t0 = time.Now()
			}
			var got bool
			switch op {
			case setContains:
				got = sess.Contains(key)
			case setInsert:
				got = !sess.Insert(key)
				*word |= bit
				if !got {
					insOK++
				}
			default:
				got = sess.Delete(key)
				*word &^= bit
				if got {
					delOK++
				}
			}
			if i == 0 && len(lat) < cap(lat) {
				lat = append(lat, clampNs(time.Since(t0)))
			}
			if got != had {
				violations++
				if w.violation == "" {
					w.violation = fmt.Sprintf("worker %d: op %d on key %d found it present=%v, model says %v", w.lane, op, key, got, had)
				}
			}
		}
		ops += batchSize
		now := time.Now()
		w.spans.record("workload.batch", 0, w.parent, 0, batchStart, now)
		batchStart = now
		if !now.Before(until) {
			*w.stream, w.lat, w.ops, w.elapsed = stream, lat, ops, now.Sub(start)
			w.insOK, w.delOK, w.violations = w.insOK+insOK, w.delOK+delOK, w.violations+violations
			return
		}
	}
}

// setInstance is one structure with its workers leased and its keys
// prefilled.
type setInstance struct {
	st      *oamem.Structure
	workers []*setWorker
	initial int
}

// newInstance builds a structure under scheme, prefills it through a
// session that is released again, and leases one session per worker.
func (s setSpec) newInstance(scheme oamem.Scheme, prefill [][]uint64, streams []*setStream) (*setInstance, error) {
	st, err := s.open(scheme)
	if err != nil {
		return nil, err
	}
	filler, err := st.Acquire()
	if err != nil {
		return nil, err
	}
	n := 0
	for lane, set := range prefill {
		for local := 0; local < s.keys/setWorkers; local++ {
			if set[local/64]>>(local%64)&1 == 1 {
				if !filler.Insert(uint64(local*setWorkers + lane)) {
					return nil, fmt.Errorf("prefill: key %d already present", local*setWorkers+lane)
				}
				n++
			}
		}
	}
	filler.Release()
	in := &setInstance{st: st, initial: n}
	for lane := 0; lane < setWorkers; lane++ {
		sess, err := st.Acquire()
		if err != nil {
			return nil, err
		}
		in.workers = append(in.workers, &setWorker{
			lane: lane, sess: sess, stream: streams[lane],
			model: slices.Clone(prefill[lane]),
			lat:   make([]uint32, 0, 1<<17),
		})
	}
	return in, nil
}

// timedSetup builds and prefills an OA structure and says how long that
// took, in seconds.
func (s setSpec) timedSetup(prefill [][]uint64, streams []*setStream) (float64, *setInstance, error) {
	start := time.Now()
	in, err := s.newInstance(oamem.OA, prefill, streams)
	return time.Since(start).Seconds(), in, err
}

// slice runs every worker until the deadline and returns operations per
// second and the ledger.
func (in *setInstance) slice(d time.Duration) (rate float64, c counts) {
	var wg sync.WaitGroup
	until := time.Now().Add(d)
	for _, w := range in.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(until)
		}()
	}
	wg.Wait()
	for _, w := range in.workers {
		rate += float64(w.ops) / w.elapsed.Seconds()
		c.Attempted += w.ops
		c.Violations += w.violations
		w.violations = 0
	}
	c.OK = c.Attempted - c.Violations
	return rate, c
}

// close releases the workers and gives the oracle's verdict on the
// instance: no operation contradicted its worker's model, and a full
// scan finds final size = prefill + inserts_ok − deletes_ok, which is
// also what the models hold.
func (in *setInstance) close(keys int) error {
	want, modelled := int64(in.initial), 0
	for _, w := range in.workers {
		if w.violation != "" {
			return oracleErr("%s", w.violation)
		}
		want += w.insOK - w.delOK
		for _, word := range w.model {
			modelled += bits.OnesCount64(word)
		}
		w.sess.Release()
	}
	s, err := in.st.Acquire()
	if err != nil {
		return err
	}
	defer s.Release()
	size := int64(0)
	for k := 0; k < keys; k++ {
		if s.Contains(uint64(k)) {
			size++
		}
	}
	if size != want || size != int64(modelled) {
		return oracleErr("final size %d, want prefill %d + inserts − deletes = %d (models hold %d)",
			size, in.initial, want, modelled)
	}
	return nil
}

// latencies moves the workers' sampled operation times of the last slice
// into one window.
func (in *setInstance) latencies() []uint32 {
	var all []uint32
	for _, w := range in.workers {
		all = append(all, w.lat...)
	}
	return all
}

// alternating is the paper's measurement: OA and NoRecl in adjacent
// slices, so that drift of the host cancels in each pair's ratio. OA
// keeps one long-lived structure, so its phases reach steady state;
// NoRecl leaks by design, so every slice gets a fresh prefilled
// structure, built outside the timed region.
type alternating struct {
	oaRates, ratios []float64
	windows         [][]uint32
	setups          []float64 // seconds to build and prefill an OA structure, sampled between slices
}

func (s setSpec) alternate(r *run, oa *setInstance, prefill [][]uint64, nrStreams []*setStream, n int, width time.Duration) (alternating, error) {
	var a alternating
	var oaC, nrC counts
	for i := 0; i < n/2; i++ {
		rate, c := oa.slice(width)
		oaC.add(c)
		a.oaRates = append(a.oaRates, rate)
		a.windows = append(a.windows, oa.latencies())

		nr, err := s.newInstance(oamem.NoRecl, prefill, nrStreams)
		if err != nil {
			return a, err
		}
		nrRate, c := nr.slice(width)
		nrC.add(c)
		a.ratios = append(a.ratios, rate/nrRate)
		if err := nr.close(s.keys); err != nil {
			return a, fmt.Errorf("NoRecl slice %d: %w", i, err)
		}
		// The leaked structure is garbage now; collect it here, between
		// timed regions, not inside one.
		runtime.GC()
		// Set-up is sampled here, all along the run, because one burst of
		// samples at the start sees only the host's speed of that second.
		if r.repeatSetup() {
			d, fresh, err := s.timedSetup(prefill, nrStreams)
			if err != nil {
				return a, err
			}
			if err := fresh.close(s.keys); err != nil {
				return a, fmt.Errorf("set-up instance: %w", err)
			}
			a.setups = append(a.setups, d)
		}
	}
	r.phase("slices-oa", float64(n/2)*width.Seconds(), oaC)
	r.phase("slices-norecl", float64(n/2)*width.Seconds(), nrC)
	return a, nil
}

// runStructure measures one structure workload.
func (s setSpec) runStructure(r *run) error {
	// The collector runs only where the benchmark calls it (the memory
	// limit is a guard, not a setting): nothing here allocates while a
	// slice is timed except NoRecl's leak.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(6 << 30)

	seed := r.cfg.seed
	prefill := prefillSet(seed, setWorkers, s.keys, s.prefill)
	streams := func(purpose uint64) []*setStream {
		out := make([]*setStream, setWorkers)
		for lane := range out {
			out[lane] = newSetStream(mix64(seed^purpose), lane, setWorkers, s.keys, s.contains, s.ins)
		}
		return out
	}
	oaStreams, nrStreams := streams(1), streams(2)

	// Set-up: what a user pays before the first operation — sizing the
	// arena and inserting the initial keys. One sample of a few
	// milliseconds says little, so alternate takes one more per slice pair.
	first, oa, err := s.timedSetup(prefill, oaStreams)
	if err != nil {
		return err
	}

	_, c := oa.slice(r.dur(0.1))
	r.phase("warmup", r.dur(0.1).Seconds(), c)
	// Memory is read here, with the OA structure warm and before the
	// first NoRecl structure exists: what NoRecl leaks is the baseline's
	// cost, not the library's, and grows with the host's speed.
	hwm, err := statusKB(selfPID, "VmHWM")
	if err != nil {
		return err
	}
	r.set("rss_mb", hwm/1024, 1)

	nSlices := setSlices
	if r.cfg.trace {
		nSlices /= 2
	}
	a, err := s.alternate(r, oa, prefill, nrStreams, nSlices, r.dur(1.0/setSlices))
	if err != nil {
		return err
	}
	setups := append(a.setups, first)
	r.set("setup_s", median(setups), len(setups))
	p50, p99, tail, tailP, n := windowPercentiles(a.windows)
	r.series("oa_slice_ops_per_s", a.oaRates)
	r.series("oa_over_norecl_pairs", a.ratios)
	r.set("ops_per_s", median(a.oaRates), len(a.oaRates))
	r.set("oa_over_norecl", median(a.ratios), len(a.ratios))
	r.set("p50_us", p50/1e3, n)
	r.set("p99_us", p99/1e3, n)
	r.note("sampled operation latency: p%.6g = %.3f us over %d samples", tailP*100, tail/1e3, n)

	if r.cfg.trace {
		if err := s.traced(r, oa, median(a.oaRates)); err != nil {
			return err
		}
	}

	if err := oa.close(s.keys); err != nil {
		return fmt.Errorf("OA structure: %w", err)
	}
	return nil
}

// traced is the per-layer part of a structure run: the same loop with a
// span per batch while the structure's own counters are sampled at
// 10 Hz, then the module probes.
func (s setSpec) traced(r *run, oa *setInstance, untracedRate float64) error {
	phaseID := r.tr.lane(0).newID()
	for _, w := range oa.workers {
		w.spans, w.parent = r.tr.lane(1+w.lane), phaseID
	}
	before := oa.st.Stats()
	var peak uint64
	stop := watch(100*time.Millisecond, func() { peak = max(peak, oa.st.Stats().Unreclaimed()) })
	start := time.Now()
	rate, c := oa.slice(r.dur(0.25))
	stop()
	for _, w := range oa.workers {
		w.spans = nil
	}
	r.tr.lane(0).record("phase.traced", phaseID, 0, 0, start, time.Now())
	r.phase("traced", r.dur(0.25).Seconds(), c)
	r.setCore(before, oa.st.Stats(), c.Attempted, peak)
	r.set("trace.overhead_share", 1-rate/untracedRate, 1)

	if err := r.moduleProbes(newKeyPicker(newRNG(r.cfg.seed, "probe-keys", 0), s.keys, 0)); err != nil {
		return err
	}
	r.noServer()
	return nil
}
