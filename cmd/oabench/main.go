// Command oabench regenerates every figure of the paper's evaluation
// (Cohen & Petrank, SPAA 2015): throughput ratios and absolute throughput
// for the four micro-benchmarks under NoRecl/OA/HP/EBR/Anchors (Figures 1,
// 4-8), the local-pool-size sweep (Figure 2), the phase-frequency sweep
// (Figure 3), the paper's sanity checks, and this repository's extra
// ablations (Appendix E choices).
//
// Usage:
//
//	oabench -experiment fig1 [-duration 1s] [-reps 20] [-threads 1,2,4,8,16,32,64]
//	oabench -experiment all  [-quick]
//
// Absolute numbers will not match the paper's 2015 testbeds; the shapes —
// who wins, by what factor, where the crossovers fall — are the
// reproduction target (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/smr"
)

type options struct {
	experiment string
	duration   time.Duration
	reps       int
	threads    []int
	delta      int
	quick      bool
}

func main() {
	var o options
	var threadsFlag string
	flag.StringVar(&o.experiment, "experiment", "fig1",
		"one of fig1..fig8, sanity, ablation, anchorsk, space, zipf, pauses, ext, all")
	flag.DurationVar(&o.duration, "duration", 200*time.Millisecond,
		"measurement duration per run (the paper uses 1s)")
	flag.IntVar(&o.reps, "reps", 3, "repetitions per configuration (the paper uses 20)")
	flag.StringVar(&threadsFlag, "threads", "1,2,4,8,16,32,64", "thread counts to sweep")
	flag.IntVar(&o.delta, "delta", 50000, "δ: allocations between reclamation phases (Figure 1 default)")
	flag.BoolVar(&o.quick, "quick", false, "tiny sweep for smoke testing")
	flag.Parse()

	for _, part := range strings.Split(threadsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad -threads element %q\n", part)
			os.Exit(2)
		}
		o.threads = append(o.threads, n)
	}
	if o.quick {
		o.threads = []int{1, 2, 4}
		o.duration = 50 * time.Millisecond
		o.reps = 1
	}

	fmt.Printf("# oabench: GOMAXPROCS=%d, duration=%v, reps=%d, δ=%d\n\n",
		runtime.GOMAXPROCS(0), o.duration, o.reps, o.delta)

	switch o.experiment {
	case "fig1":
		figureSweep(o, "Figure 1: throughput ratio vs NoRecl (80% reads)", 0.8, false, 64)
	case "fig4":
		figureSweep(o, "Figure 4: absolute throughput in Mops/s (80% reads)", 0.8, true, 64)
	case "fig5":
		figureSweep(o, "Figure 5: second-platform ratios (sweep capped at 32 threads)", 0.8, false, 32)
	case "fig6":
		figureSweep(o, "Figure 6: second-platform absolute throughput (capped at 32)", 0.8, true, 32)
	case "fig7":
		figureSweep(o, "Figure 7: ratios at 40% mutation (60% reads)", 0.6, false, 64)
	case "fig8":
		figureSweep(o, "Figure 8: ratios at 2/3 mutation (1/3 reads)", 1.0/3.0, false, 64)
	case "fig2":
		fig2(o)
	case "fig3":
		fig3(o)
	case "sanity":
		sanity(o)
	case "ablation":
		ablation(o)
	case "anchorsk":
		anchorsK(o)
	case "space":
		space(o)
	case "zipf":
		zipf(o)
	case "pauses":
		pauses(o)
	case "ext":
		anchorsK(o)
		space(o)
		zipf(o)
		pauses(o)
	case "all":
		figureSweep(o, "Figure 1: throughput ratio vs NoRecl (80% reads)", 0.8, false, 64)
		fig2(o)
		fig3(o)
		figureSweep(o, "Figure 4: absolute throughput in Mops/s (80% reads)", 0.8, true, 64)
		figureSweep(o, "Figure 5: second-platform ratios (capped at 32 threads)", 0.8, false, 32)
		figureSweep(o, "Figure 6: second-platform absolute throughput (capped at 32)", 0.8, true, 32)
		figureSweep(o, "Figure 7: ratios at 40% mutation (60% reads)", 0.6, false, 64)
		figureSweep(o, "Figure 8: ratios at 2/3 mutation (1/3 reads)", 1.0/3.0, false, 64)
		sanity(o)
		ablation(o)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", o.experiment)
		os.Exit(2)
	}
}

// measure runs one (structure, scheme, threads) cell and returns its mean
// throughput over the repetitions.
func measure(o options, st harness.Structure, sc smr.Scheme, threads int,
	readFraction float64, delta, localPool int, warnStore bool) float64 {
	mk := func() smr.Set {
		set, err := harness.Build(harness.BuildConfig{
			Structure: st, Scheme: sc, Threads: threads,
			Delta: delta, LocalPool: localPool, WarningByStore: warnStore,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return set
	}
	w := harness.WorkloadFor(st, threads, readFraction)
	w.Duration = o.duration
	mean, _ := harness.Repeat(mk, w, o.reps)
	return mean
}

// figureSweep renders the Figure 1/4/5/6/7/8 family: per structure, a
// threads × schemes table of ratios (or Mops when absolute).
func figureSweep(o options, title string, readFraction float64, absolute bool, capThreads int) {
	fmt.Printf("== %s ==\n", title)
	for _, st := range harness.Structures {
		schemes := []smr.Scheme{smr.OA, smr.HP, smr.EBR}
		if st.Supports(smr.Anchors) {
			schemes = append(schemes, smr.Anchors)
		}
		fmt.Printf("\n-- %s --\n", st)
		fmt.Printf("%8s %10s", "threads", "NoRecl")
		for _, sc := range schemes {
			fmt.Printf(" %10s", sc)
		}
		fmt.Println()
		for _, n := range o.threads {
			if n > capThreads {
				continue
			}
			base := measure(o, st, smr.NoRecl, n, readFraction, o.delta, 126, false)
			fmt.Printf("%8d %10.3f", n, base)
			for _, sc := range schemes {
				v := measure(o, st, sc, n, readFraction, o.delta, 126, false)
				if absolute {
					fmt.Printf(" %10.3f", v)
				} else {
					fmt.Printf(" %10s", harness.FormatRatio(v, base))
				}
			}
			fmt.Println()
		}
		if absolute {
			fmt.Println("   (all columns in Mops/s)")
		} else {
			fmt.Println("   (NoRecl column in Mops/s; scheme columns are throughput ratios)")
		}
	}
	fmt.Println()
}

// fig2 sweeps the local pool size at 32 threads, phase every ~16,000
// allocations (Figure 2).
func fig2(o options) {
	fmt.Println("== Figure 2: throughput (Mops/s) vs local pool size, 32 threads, δ=16000 ==")
	threads := sweepThreads(o, 32)
	pools := []int{2, 8, 32, 64, 126}
	schemes := []smr.Scheme{smr.OA, smr.HP, smr.EBR}
	for _, st := range []harness.Structure{harness.LinkedList5K, harness.Hash} {
		fmt.Printf("\n-- %s (threads=%d) --\n", st, threads)
		fmt.Printf("%10s", "pool")
		for _, sc := range schemes {
			fmt.Printf(" %10s", sc)
		}
		fmt.Println()
		for _, p := range pools {
			fmt.Printf("%10d", p)
			for _, sc := range schemes {
				v := measure(o, st, sc, threads, 0.8, 16000, p, false)
				fmt.Printf(" %10.3f", v)
			}
			fmt.Println()
		}
	}
	fmt.Println()
}

// fig3 sweeps δ at 32 threads (Figure 3).
func fig3(o options) {
	fmt.Println("== Figure 3: throughput (Mops/s) vs phase frequency δ, 32 threads ==")
	threads := sweepThreads(o, 32)
	deltas := []int{8000, 12000, 16000, 24000, 32000}
	schemes := []smr.Scheme{smr.OA, smr.HP, smr.EBR}
	for _, st := range []harness.Structure{harness.LinkedList5K, harness.Hash} {
		fmt.Printf("\n-- %s (threads=%d) --\n", st, threads)
		fmt.Printf("%10s", "delta")
		for _, sc := range schemes {
			fmt.Printf(" %10s", sc)
		}
		fmt.Println()
		for _, d := range deltas {
			fmt.Printf("%10d", d)
			for _, sc := range schemes {
				v := measure(o, st, sc, threads, 0.8, d, 126, false)
				fmt.Printf(" %10.3f", v)
			}
			fmt.Println()
		}
	}
	fmt.Println()
}

// sanity reproduces §5's methodology checks: longer runs behave like short
// ones (steady state).
func sanity(o options) {
	fmt.Println("== Sanity: steady state (longer run ≈ short run), LinkedList5K/NoRecl ==")
	threads := sweepThreads(o, 8)
	short := o
	long := o
	long.duration = 5 * o.duration
	a := measure(short, harness.LinkedList5K, smr.NoRecl, threads, 0.8, o.delta, 126, false)
	b := measure(long, harness.LinkedList5K, smr.NoRecl, threads, 0.8, o.delta, 126, false)
	fmt.Printf("  duration %v: %.3f Mops/s\n  duration %v: %.3f Mops/s\n  ratio %.2f (expect ≈ 1)\n\n",
		o.duration, a, 5*o.duration, b, b/a)
}

// ablation measures the Appendix E design choices this repository exposes:
// setting warning bits by CAS (once per phase) vs by plain store, and
// batched block transfer vs near-unbatched.
func ablation(o options) {
	threads := sweepThreads(o, 32)
	fmt.Printf("== Ablation (threads=%d): Appendix E warning-bit protocol ==\n", threads)
	for _, st := range []harness.Structure{harness.LinkedList128, harness.Hash} {
		cas := measure(o, st, smr.OA, threads, 0.8, 16000, 126, false)
		store := measure(o, st, smr.OA, threads, 0.8, 16000, 126, true)
		fmt.Printf("  %-14s warning-by-CAS %.3f Mops/s, warning-by-store %.3f Mops/s (ratio %.2f)\n",
			st, cas, store, store/cas)
	}
	fmt.Println("\n== Ablation: block batching (local pool 126 vs 2) ==")
	for _, st := range []harness.Structure{harness.LinkedList128, harness.Hash} {
		big := measure(o, st, smr.OA, threads, 0.8, 16000, 126, false)
		tiny := measure(o, st, smr.OA, threads, 0.8, 16000, 2, false)
		fmt.Printf("  %-14s pool=126 %.3f Mops/s, pool=2 %.3f Mops/s (ratio %.2f)\n",
			st, big, tiny, tiny/big)
	}
	fmt.Println()
}

// sweepThreads picks the figure's canonical thread count, bounded by the
// sweep the user asked for.
func sweepThreads(o options, want int) int {
	best := o.threads[0]
	for _, n := range o.threads {
		if n <= want && n > best {
			best = n
		}
	}
	return best
}
