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
	"sync"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/harness"
	"repro/internal/hashtable"
	"repro/internal/sizing"
	"repro/internal/skiplist"
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
// NoRecl's; both reach nodes through the same arena.View lookup.
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

// BenchmarkContainsHop is the per-hop decomposition of Contains
// (EXPERIMENTS.md, "Per-hop decomposition") on the skip list and the hash
// table. Each sub-benchmark reports the ns per call of three rows, which
// hold the same 10,000 of 20,000 keys after the same churn (hopFill):
//   - OA, sized as bench/ sizes it: live set + δ = 50,000;
//   - NoRecl-flat: NoRecl with every node inside its arena's flat region,
//     sized for the whole churn;
//   - NoRecl-past-flat: NoRecl built with capacity 1, whose flat region
//     holds the structure's own nodes (the skip list's head; the hash
//     table's buckets are words, not nodes) and less than one chunk more. Two chunks
//     of throwaway keys, inserted and deleted first, use that region up
//     (NoRecl never reuses a slot), so every hop to a key's node takes the
//     chunk directory.
//
// The rows run in turn, 4,096 calls at a time, so drift of the host hits
// every row alike; they are built once per process. Run:
//
//	go test -run '^$' -bench ContainsHop -cpu 1 .
func BenchmarkContainsHop(b *testing.B) {
	for _, st := range []struct {
		name string
		rows func() []hopRow
	}{{"SkipList", skipListHopRows}, {"Hash", hashHopRows}} {
		b.Run(st.name, func(b *testing.B) { timeContains(b, st.rows()) })
	}
}

const (
	hopLive  = 10000
	hopKeys  = 2 * hopLive
	hopDelta = 50000
	hopChurn = 1 << 20 // takes each OA row through one phase of ~50k recycled slots
)

type hopRow struct {
	name string
	s    smr.Session
}

var (
	skipListHopRows = sync.OnceValue(func() []hopRow { return hopRows(skiplist.New) })
	hashHopRows     = sync.OnceValue(func() []hopRow {
		return hopRows(func(sc smr.Scheme, c sizing.Config) (smr.Set, error) { return hashtable.New(sc, c, hopLive) })
	})
)

func hopRows(newSet func(smr.Scheme, sizing.Config) (smr.Set, error)) []hopRow {
	session := func(sc smr.Scheme, capacity int) smr.Session {
		set, err := newSet(sc, sizing.Config{MaxThreads: 1, Capacity: capacity})
		if err != nil {
			panic(err)
		}
		return set.Session(0)
	}
	oa := session(smr.OA, hopLive+hopDelta+4*126+64)
	inserted := hopFill(oa)
	flat := session(smr.NoRecl, hopLive+inserted+arena.ChunkSize)
	hopFill(flat)
	past := session(smr.NoRecl, 1)
	for k := uint64(hopKeys); k < hopKeys+2*arena.ChunkSize; k++ {
		past.Insert(k)
		past.Delete(k)
	}
	hopFill(past)
	return []hopRow{{"OA", oa}, {"NoRecl-flat", flat}, {"NoRecl-past-flat", past}}
}

// hopFill prefills s with the even keys, then churns it with 80 %
// Contains, 10 % Insert and 10 % Delete over uniform keys, and returns how
// many churn inserts succeeded. The draws are fixed, so every row ends
// holding the same keys.
func hopFill(s smr.Session) (inserted int) {
	for k := uint64(0); k < hopKeys; k += 2 {
		s.Insert(k)
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < hopChurn; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := (x >> 8) % hopKeys
		switch x % 10 {
		case 8:
			if s.Insert(k) {
				inserted++
			}
		case 9:
			s.Delete(k)
		default:
			s.Contains(k)
		}
	}
	return inserted
}

var hopSink bool

// timeContains runs each row's Contains on uniform keys in turn, 4,096
// calls at a time, until every row has made b.N calls, and reports each
// row's mean ns per call as a metric named after the row.
func timeContains(b *testing.B, rows []hopRow) {
	const slice = 1 << 12
	var keys [1 << 16]uint64
	x := uint64(0xD1B54A32D192ED03)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = x % hopKeys
	}
	spent := make([]time.Duration, len(rows))
	b.ResetTimer()
	for done := 0; done < b.N; done += slice {
		n := min(slice, b.N-done)
		for r, row := range rows {
			start := time.Now()
			for i := done; i < done+n; i++ {
				hopSink = row.s.Contains(keys[i%len(keys)])
			}
			spent[r] += time.Since(start)
		}
	}
	for r, row := range rows {
		b.ReportMetric(float64(spent[r].Nanoseconds())/float64(b.N), row.name+"-ns/op")
	}
}
