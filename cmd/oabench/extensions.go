package main

import (
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/hashtable"
	"repro/internal/smr"
)

// extension experiments beyond the paper's figures. Registered from main's
// experiment switch; see EXPERIMENTS.md "Extensions".

// anchorsK sweeps the anchors scheme's K (the paper fixes K = 1000 "for
// best performance"; this shows the tradeoff it bought).
func anchorsK(o options) {
	threads := sweepThreads(o, 32)
	fmt.Printf("== Extension: anchors K sweep (threads=%d, δ=16000) ==\n", threads)
	for _, st := range []harness.Structure{harness.LinkedList5K, harness.LinkedList128} {
		fmt.Printf("\n-- %s --\n%10s %10s\n", st, "K", "Mops/s")
		for _, k := range []int{10, 100, 1000, 10000} {
			mk := func() smr.Set {
				set, err := harness.Build(harness.BuildConfig{
					Structure: st, Scheme: smr.Anchors, Threads: threads,
					Delta: 16000, AnchorsK: k,
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				return set
			}
			w := harness.WorkloadFor(st, threads, 0.8)
			w.Duration = o.duration
			mean, _ := harness.Repeat(mk, w, o.reps)
			fmt.Printf("%10d %10.3f\n", k, mean)
		}
	}
	fmt.Println()
}

// space reports the unreclaimed-slot backlog each scheme carries at the
// end of a run, across δ — the space half of the space/time tradeoff the
// paper's Figure 3 shows only the time half of.
func space(o options) {
	threads := sweepThreads(o, 32)
	fmt.Printf("== Extension: unreclaimed retired slots after a run (threads=%d, Hash) ==\n", threads)
	fmt.Printf("%10s %10s %10s %10s\n", "delta", "OA", "HP", "EBR")
	for _, d := range []int{8000, 16000, 32000} {
		fmt.Printf("%10d", d)
		for _, sc := range []smr.Scheme{smr.OA, smr.HP, smr.EBR} {
			set, err := harness.Build(harness.BuildConfig{
				Structure: harness.Hash, Scheme: sc, Threads: threads, Delta: d,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			w := harness.WorkloadFor(harness.Hash, threads, 0.8)
			w.Duration = o.duration
			res := harness.Run(set, w)
			fmt.Printf(" %10d", res.Stats.Unreclaimed())
		}
		fmt.Println()
	}
	fmt.Println()
}

// zipf runs the hash benchmark under a hot-key (Zipfian) distribution —
// an extension workload: contention concentrates on few keys, which
// stresses the write barriers rather than the traversals.
func zipf(o options) {
	threads := sweepThreads(o, 32)
	fmt.Printf("== Extension: Zipfian hot keys (s=1.2, Hash, threads=%d) ==\n", threads)
	fmt.Printf("%10s %10s", "dist", "NoRecl")
	schemes := []smr.Scheme{smr.OA, smr.HP, smr.EBR}
	for _, sc := range schemes {
		fmt.Printf(" %10s", sc)
	}
	fmt.Println()
	for _, zs := range []float64{0, 1.2} {
		name := "uniform"
		if zs > 0 {
			name = "zipf"
		}
		run := func(sc smr.Scheme) float64 {
			mk := func() smr.Set {
				set, err := harness.Build(harness.BuildConfig{
					Structure: harness.Hash, Scheme: sc, Threads: threads, Delta: o.delta,
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				return set
			}
			w := harness.WorkloadFor(harness.Hash, threads, 0.8)
			w.Duration = o.duration
			w.ZipfS = zs
			mean, _ := harness.Repeat(mk, w, o.reps)
			return mean
		}
		base := run(smr.NoRecl)
		fmt.Printf("%10s %10.3f", name, base)
		for _, sc := range schemes {
			fmt.Printf(" %10s", harness.FormatRatio(run(sc), base))
		}
		fmt.Println()
	}
	fmt.Println()
}

// pauses prints the OA reclamation pause histogram for one configuration
// (the latency view throughput plots hide).
func pauses(o options) {
	threads := sweepThreads(o, 32)
	fmt.Printf("== Extension: OA reclamation pauses (Hash, threads=%d, δ=%d) ==\n", threads, o.delta)
	set, err := harness.Build(harness.BuildConfig{
		Structure: harness.Hash, Scheme: smr.OA, Threads: threads, Delta: o.delta,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	w := harness.WorkloadFor(harness.Hash, threads, 0.8)
	w.Duration = 2 * o.duration
	res := harness.Run(set, w)
	pauses := set.(*hashtable.OA).Engine().Manager().PhasePauses()
	fmt.Printf("  throughput %.3f Mops/s\n  pauses: %s\n\n", res.Mops(), pauses.String())
}
