// Package harness drives the paper's micro-benchmarks (§5 "Methodology"):
// a stressful workload of repeated operations from many threads against one
// data structure, with the paper's operation mix (80% read-only by
// default), key range (2× the initial size, keeping the size stationary),
// initialization, thread sweep and throughput/ratio reporting.
package harness

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/smr"
)

// Workload describes one benchmark run.
type Workload struct {
	// Threads is the number of worker goroutines (each pinned to an OS
	// thread for the duration of the run).
	Threads int
	// InitialSize is the number of distinct keys inserted before the
	// measurement starts.
	InitialSize int
	// KeyRange is the key universe size; the paper uses 2× InitialSize so
	// that random equal-probability inserts/deletes hold the size steady.
	KeyRange uint64
	// ReadFraction is the share of Contains operations (0.8 in Figure 1;
	// 0.6 in Figure 7; 1/3 in Figure 8). The rest splits evenly between
	// Insert and Delete.
	ReadFraction float64
	// Duration is the measurement length for time-based runs.
	Duration time.Duration
	// TotalOps, when non-zero, runs a fixed operation count instead of a
	// fixed duration (used by testing.B benchmarks).
	TotalOps int
	// Seed perturbs the per-thread generators across repetitions.
	Seed uint64
	// ZipfS, when > 1, draws keys from a Zipf distribution with exponent
	// ZipfS over the key range instead of uniformly — an extension
	// workload (hot keys) beyond the paper's uniform benchmarks.
	ZipfS float64
	// SnapshotEvery, together with SnapshotW, emits a live progress line
	// at this interval while the run is in flight (see Snapshotter).
	SnapshotEvery time.Duration
	// SnapshotW receives the snapshot lines.
	SnapshotW io.Writer
	// LatencySample, when > 0, times one of every LatencySample operations
	// per thread and aggregates the samples into Result.Latency, split by
	// operation kind. Zero disables sampling: the driver loop then issues
	// no clock reads at all, so throughput-only runs are unaffected.
	LatencySample int
}

func (w *Workload) fill() {
	if w.Threads <= 0 {
		w.Threads = 1
	}
	if w.KeyRange == 0 {
		w.KeyRange = 2 * uint64(w.InitialSize)
		if w.KeyRange == 0 {
			w.KeyRange = 1024
		}
	}
	if w.ReadFraction == 0 {
		w.ReadFraction = 0.8
	}
	if w.Duration == 0 && w.TotalOps == 0 {
		w.Duration = 200 * time.Millisecond
	}
}

// OpKind indexes the per-operation latency histograms of OpLatency.
type OpKind int

// The three operation kinds of the paper's set benchmark.
const (
	OpContains OpKind = iota
	OpInsert
	OpDelete
	NumOpKinds
)

// String returns the lower-case operation name used in reports.
func (k OpKind) String() string {
	switch k {
	case OpContains:
		return "contains"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return "unknown"
}

// OpLatency aggregates the sampled per-operation latencies of one run.
// Histograms are merged across threads after the workers join, so reading
// them is race-free once RunPrefilled returns.
type OpLatency struct {
	// SampleEvery echoes the Workload.LatencySample that produced the data.
	SampleEvery int
	// Hists holds one histogram per OpKind.
	Hists [NumOpKinds]obs.Histogram
}

// Hist returns the histogram for one operation kind.
func (l *OpLatency) Hist(k OpKind) *obs.Histogram { return &l.Hists[k] }

// Result reports one run.
type Result struct {
	Ops      uint64
	Duration time.Duration
	Stats    smr.Stats
	// Latency is non-nil only when the workload set LatencySample > 0.
	Latency *OpLatency
}

// Mops returns throughput in million operations per second.
func (r Result) Mops() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds() / 1e6
}

// splitmix64 is the per-thread operation generator.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Prefill inserts InitialSize distinct keys through session 0.
func Prefill(set smr.Set, w Workload) {
	w.fill()
	s := set.Session(0)
	rng := splitmix64(w.Seed*0x9E3779B9 + 12345)
	inserted := 0
	for inserted < w.InitialSize {
		k := rng.next()%w.KeyRange + 1
		if s.Insert(k) {
			inserted++
		}
	}
}

// Run prefills the structure and executes the workload, returning the
// aggregate throughput. The caller should hold GOMAXPROCS ≥ Threads for
// meaningful scaling numbers (oversubscription is allowed, as in the
// paper's 64-thread AMD runs).
func Run(set smr.Set, w Workload) Result {
	w.fill()
	Prefill(set, w)
	return RunPrefilled(set, w)
}

// RunPrefilled executes the measurement phase only.
func RunPrefilled(set smr.Set, w Workload) Result {
	w.fill()
	var stop atomic.Bool
	// Each worker publishes its running count every 256 operations so a
	// Snapshotter (or any concurrent reader) can watch live progress; the
	// atomic store hits an exclusively owned cache line, so the cost is
	// the same as the plain write it replaces.
	counts := make([]struct {
		n atomic.Uint64
		_ [7]uint64 // cacheline pad
	}, w.Threads)

	opsPerThread := 0
	if w.TotalOps > 0 {
		opsPerThread = (w.TotalOps + w.Threads - 1) / w.Threads
	}

	// Per-thread latency histograms, merged after the join: the workers
	// never share a cache line, and the merge makes the aggregate safe to
	// read without atomicity caveats.
	var lats []*OpLatency
	if w.LatencySample > 0 {
		lats = make([]*OpLatency, w.Threads)
		for i := range lats {
			lats[i] = &OpLatency{SampleEvery: w.LatencySample}
		}
	}

	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(w.Threads)
	for id := 0; id < w.Threads; id++ {
		go func(id int) {
			defer done.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			s := set.Session(id)
			rng := splitmix64(w.Seed + uint64(id)*0x5851F42D4C957F2D + 7)
			var zipf *rand.Zipf
			if w.ZipfS > 1 {
				src := rand.New(rand.NewSource(int64(w.Seed) + int64(id)*7919 + 1))
				zipf = rand.NewZipf(src, w.ZipfS, 1, w.KeyRange-1)
			}
			insertTurn := id&1 == 0
			readCut := uint64(w.ReadFraction * (1 << 32))
			var lat *OpLatency
			untilSample := 0
			if lats != nil {
				lat = lats[id]
				// Stagger the first sample across threads so the timed ops
				// do not line up on the same iteration indices.
				untilSample = 1 + (id*7)%w.LatencySample
			}
			start.Wait()
			n := uint64(0)
			for {
				if opsPerThread > 0 {
					if n >= uint64(opsPerThread) {
						break
					}
				} else if n&0xFF == 0 {
					counts[id].n.Store(n)
					if stop.Load() {
						break
					}
				}
				r := rng.next()
				k := r%w.KeyRange + 1
				if zipf != nil {
					k = zipf.Uint64() + 1
				}
				timed := false
				var t0 time.Time
				if lat != nil {
					if untilSample--; untilSample == 0 {
						untilSample = w.LatencySample
						timed = true
						t0 = time.Now()
					}
				}
				var kind OpKind
				if (r>>32)&0xFFFFFFFF < readCut {
					kind = OpContains
					s.Contains(k)
				} else if insertTurn {
					kind = OpInsert
					s.Insert(k)
					insertTurn = false
				} else {
					kind = OpDelete
					s.Delete(k)
					insertTurn = true
				}
				if timed {
					lat.Hists[kind].Observe(time.Since(t0))
				}
				n++
			}
			counts[id].n.Store(n)
		}(id)
	}

	t0 := time.Now()
	start.Done()

	var snapStop chan struct{}
	var snapWG sync.WaitGroup
	if w.SnapshotEvery > 0 && w.SnapshotW != nil {
		snapStop = make(chan struct{})
		snap := &Snapshotter{W: w.SnapshotW, Every: w.SnapshotEvery}
		live := func() uint64 {
			var t uint64
			for i := range counts {
				t += counts[i].n.Load()
			}
			return t
		}
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			snap.Run(snapStop, live, set.Stats)
		}()
	}

	if opsPerThread == 0 {
		time.Sleep(w.Duration)
		stop.Store(true)
	}
	done.Wait()
	elapsed := time.Since(t0)
	if snapStop != nil {
		close(snapStop)
		snapWG.Wait()
	}

	var total uint64
	for i := range counts {
		total += counts[i].n.Load()
	}
	res := Result{Ops: total, Duration: elapsed, Stats: set.Stats()}
	if lats != nil {
		merged := &OpLatency{SampleEvery: w.LatencySample}
		for _, l := range lats {
			for k := range merged.Hists {
				merged.Hists[k].Merge(&l.Hists[k])
			}
		}
		res.Latency = merged
	}
	return res
}

// Repeat runs the workload reps times on fresh structures from mk and
// returns the mean Mops with the half-width of a 95% confidence interval
// (the paper's error bars; normal approximation).
func Repeat(mk func() smr.Set, w Workload, reps int) (mean, ci float64) {
	mean, ci, _ = RepeatObserved(mk, w, reps)
	return mean, ci
}

// RepeatObserved is Repeat plus the aggregate SMR statistics of the final
// repetition, so reports can place reclamation counters next to the
// throughput they accompanied.
func RepeatObserved(mk func() smr.Set, w Workload, reps int) (mean, ci float64, last smr.Stats) {
	mean, ci, res := RepeatFull(mk, w, reps)
	return mean, ci, res.Stats
}

// RepeatFull is RepeatObserved returning the final repetition's full
// Result, so callers can read the latency histograms a LatencySample > 0
// workload produced alongside the mean throughput.
//
// With reps >= 4 the single fastest and slowest repetitions are dropped
// before averaging: on a shared host one hypervisor-descheduled
// repetition drags a plain mean far below the machine's real capability
// (and one lucky repetition inflates it), which turns cross-snapshot
// throughput comparisons into coin flips. The trim is symmetric and
// applied identically to every run, so paired comparisons stay unbiased.
func RepeatFull(mk func() smr.Set, w Workload, reps int) (mean, ci float64, last Result) {
	if reps <= 0 {
		reps = 1
	}
	xs := make([]float64, reps)
	for i := range xs {
		wi := w
		wi.Seed = w.Seed + uint64(i)*1000003
		res := Run(mk(), wi)
		xs[i] = res.Mops()
		last = res
	}
	agg := xs
	if reps >= 4 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		agg = s[1 : len(s)-1]
	}
	for _, x := range agg {
		mean += x
	}
	mean /= float64(len(agg))
	if len(agg) < 2 {
		return mean, 0, last
	}
	var ss float64
	for _, x := range agg {
		d := x - mean
		ss += d * d
	}
	sd := ss / float64(len(agg)-1)
	// 1.96 · s/√n, the normal-approximation 95% interval.
	ci = 1.96 * math.Sqrt(sd/float64(len(agg)))
	return mean, ci, last
}

// FormatRatio renders a throughput ratio the way the paper's figures do
// (1.0 = parity with NoRecl).
func FormatRatio(scheme, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", scheme/base)
}
