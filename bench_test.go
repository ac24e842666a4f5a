// Per-figure benchmarks. Every table/figure of the paper's evaluation has
// a bench target here; cmd/oabench runs the same cells with the paper's
// full sweep and ratio reporting. Run:
//
//	go test -bench=. -benchmem            # everything
//	go test -bench 'Fig1/Hash'            # one panel
//
// The "mops" metric is throughput in million operations per second.
package repro

import (
	"strconv"
	"testing"

	"repro/internal/harness"
	"repro/internal/smr"
	"repro/oamem"
)

// benchThreads is the worker count for bench cells; the host in CI-like
// environments may have a single CPU, in which case workers time-slice
// (ratios between schemes remain meaningful, absolute scaling does not).
const benchThreads = 4

func benchCell(b *testing.B, st harness.Structure, sc smr.Scheme,
	readFraction float64, delta, localPool int, warnStore bool) {
	b.Helper()
	set, err := harness.Build(harness.BuildConfig{
		Structure: st, Scheme: sc, Threads: benchThreads,
		Delta: delta, LocalPool: localPool, WarningByStore: warnStore,
	})
	if err != nil {
		b.Fatal(err)
	}
	w := harness.WorkloadFor(st, benchThreads, readFraction)
	harness.Prefill(set, w)
	w.TotalOps = b.N
	b.ResetTimer()
	res := harness.RunPrefilled(set, w)
	b.StopTimer()
	b.ReportMetric(res.Mops(), "mops")
}

// schemesFor mirrors the paper's per-structure scheme matrix.
func schemesFor(st harness.Structure) []smr.Scheme {
	s := []smr.Scheme{smr.NoRecl, smr.OA, smr.HP, smr.EBR}
	if st.Supports(smr.Anchors) {
		s = append(s, smr.Anchors)
	}
	return s
}

// BenchmarkFig1 regenerates Figure 1 (and via ratios, Figure 4; run with a
// capped GOMAXPROCS for Figures 5-6): throughput of every structure under
// every scheme at the 80%-read mix, reclamation every ~50,000 allocations.
func BenchmarkFig1(b *testing.B) {
	for _, st := range harness.Structures {
		for _, sc := range schemesFor(st) {
			b.Run(string(st)+"/"+sc.String(), func(b *testing.B) {
				benchCell(b, st, sc, 0.8, 50000, 126, false)
			})
		}
	}
}

// BenchmarkFig2 regenerates Figure 2: throughput as a function of the
// local pool size (paper: 32 threads, a phase every ~16,000 allocations).
func BenchmarkFig2(b *testing.B) {
	for _, st := range []harness.Structure{harness.LinkedList5K, harness.Hash} {
		for _, sc := range []smr.Scheme{smr.OA, smr.HP, smr.EBR} {
			for _, pool := range []int{2, 32, 126} {
				b.Run(string(st)+"/"+sc.String()+"/pool="+strconv.Itoa(pool), func(b *testing.B) {
					benchCell(b, st, sc, 0.8, 16000, pool, false)
				})
			}
		}
	}
}

// BenchmarkFig3 regenerates Figure 3: throughput as a function of the
// reclamation phase frequency δ.
func BenchmarkFig3(b *testing.B) {
	for _, st := range []harness.Structure{harness.LinkedList5K, harness.Hash} {
		for _, sc := range []smr.Scheme{smr.OA, smr.HP, smr.EBR} {
			for _, delta := range []int{8000, 16000, 32000} {
				b.Run(string(st)+"/"+sc.String()+"/delta="+strconv.Itoa(delta), func(b *testing.B) {
					benchCell(b, st, sc, 0.8, delta, 126, false)
				})
			}
		}
	}
}

// BenchmarkFig7 regenerates Figure 7: the 40%-mutation mix (60% reads).
func BenchmarkFig7(b *testing.B) {
	for _, st := range harness.Structures {
		for _, sc := range schemesFor(st) {
			b.Run(string(st)+"/"+sc.String(), func(b *testing.B) {
				benchCell(b, st, sc, 0.6, 50000, 126, false)
			})
		}
	}
}

// BenchmarkFig8 regenerates Figure 8: the 2/3-mutation mix (1/3 reads).
func BenchmarkFig8(b *testing.B) {
	for _, st := range harness.Structures {
		for _, sc := range schemesFor(st) {
			b.Run(string(st)+"/"+sc.String(), func(b *testing.B) {
				benchCell(b, st, sc, 1.0/3.0, 50000, 126, false)
			})
		}
	}
}

// BenchmarkAblationWarning measures Appendix E's warning-bit protocol
// choice: once-per-phase CAS (the paper's optimization) vs plain store.
func BenchmarkAblationWarning(b *testing.B) {
	for _, st := range []harness.Structure{harness.LinkedList128, harness.Hash} {
		b.Run(string(st)+"/cas", func(b *testing.B) {
			benchCell(b, st, smr.OA, 0.8, 16000, 126, false)
		})
		b.Run(string(st)+"/store", func(b *testing.B) {
			benchCell(b, st, smr.OA, 0.8, 16000, 126, true)
		})
	}
}

// BenchmarkOAReadBarrier isolates the cost of the paper's Algorithm 1 read
// barrier: the pure-read workload on the long list is a traversal
// micro-benchmark where OA's warning check is its only per-hop work beyond
// NoRecl's. The two also address nodes differently: OA indexes one flat
// slice, NoRecl walks the arena's chunk directory (EXPERIMENTS.md,
// "Per-hop decomposition").
func BenchmarkOAReadBarrier(b *testing.B) {
	for _, sc := range []smr.Scheme{smr.NoRecl, smr.OA, smr.HP, smr.EBR} {
		b.Run(sc.String(), func(b *testing.B) {
			benchCell(b, harness.LinkedList5K, sc, 1.0, 50000, 126, false)
		})
	}
}

// BenchmarkHashMix is bench/'s hash-update workload at Go-benchmark
// scale, so the per-operation OA/NoRecl gap reproduces outside the
// frozen bench/: oamem.HashSet, 10,000 of 20,000 keys resident, 1/3
// contains · 1/3 insert · 1/3 delete over uniform keys, one session,
// δ = 50,000. OA keeps one structure so its phases reach steady state;
// NoRecl leaks by design, so it starts over on a fresh prefilled
// structure every hashMixSegment operations, built with the timer
// stopped. Run:
//
//	go test -run '^$' -bench HashMix -cpu 1 .
func BenchmarkHashMix(b *testing.B) {
	for _, sc := range []oamem.Scheme{oamem.OA, oamem.NoRecl} {
		b.Run(sc.String(), func(b *testing.B) { hashMix(b, sc) })
	}
}

const (
	hashMixKeys    = 20000
	hashMixDelta   = 50000
	hashMixSegment = 1 << 20
)

var hashMixSink bool

func hashMix(b *testing.B, scheme oamem.Scheme) {
	// One fixed xorshift stream of op·key draws, cycled: both schemes run
	// the same operations and drawing them costs one load.
	var stream [1 << 16]uint32
	x := uint64(0x9E3779B97F4A7C15)
	for i := range stream {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		stream[i] = uint32(x % (3 * hashMixKeys))
	}
	open := func() *oamem.Session {
		st, err := oamem.HashSet(oamem.WithScheme(scheme), oamem.WithThreads(1),
			oamem.WithCapacity(hashMixKeys/2+hashMixDelta+4*126+64), oamem.WithExpected(hashMixKeys/2))
		if err != nil {
			b.Fatal(err)
		}
		s, err := st.Acquire()
		if err != nil {
			b.Fatal(err)
		}
		for k := uint64(0); k < hashMixKeys; k += 2 {
			s.Insert(k)
		}
		return s
	}
	s := open()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scheme == oamem.NoRecl && i > 0 && i%hashMixSegment == 0 {
			b.StopTimer()
			s = open()
			b.StartTimer()
		}
		v := stream[i&(len(stream)-1)]
		switch key := uint64(v / 3); v % 3 {
		case 0:
			hashMixSink = s.Contains(key)
		case 1:
			hashMixSink = s.Insert(key)
		default:
			hashMixSink = s.Delete(key)
		}
	}
}
