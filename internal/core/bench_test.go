package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/arena"
)

// BenchmarkHPSnapshot compares the sorted-array hazard-pointer snapshot
// that Recycling now uses with the map-based one it replaced: build the
// snapshot from every thread's published hazard pointers, then answer one
// membership probe per (simulated) retired slot — the exact work profile
// of drain. The sorted array must win at ≥ 64 hazard pointers.
func BenchmarkHPSnapshot(b *testing.B) {
	const probes = 1024
	for _, threads := range []int{4, 16, 64} {
		const hpsPerThread = 8 // WriteHPs + 5 owner HPs, in three triples
		totalHPs := threads * hpsPerThread
		m := NewManager[node](Config{
			MaxThreads: threads, Capacity: 1 << 14, OwnerHPs: hpsPerThread - WriteHPs,
		}, resetNode)
		for ti, th := range m.threads {
			base := uint32(ti * 131)
			th.ProtectCAS(arena.MakePtr(base), arena.MakePtr(base+17), arena.MakePtr(base+34))
			for i := range hpsPerThread - WriteHPs {
				th.SetOwnerHP(i, arena.MakePtr(base+51+uint32(i)*17))
			}
		}
		t0 := m.threads[0]

		b.Run(fmt.Sprintf("sorted/hps=%d", totalHPs), func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				hp := t0.snapshotHPs()
				for p := uint32(0); p < probes; p++ {
					if hp.Contains(p * 7) {
						hits++
					}
				}
			}
			sinkInt = hits
		})
		b.Run(fmt.Sprintf("map/hps=%d", totalHPs), func(b *testing.B) {
			scratch := make(map[uint32]struct{}, totalHPs)
			hits := 0
			for i := 0; i < b.N; i++ {
				clear(scratch)
				for _, other := range m.threads {
					for j := 0; j < len(other.hps); j += tripleWords {
						for _, h := range other.triple(j) {
							if h != 0 {
								scratch[uint32(h-1)] = struct{}{}
							}
						}
					}
				}
				for p := uint32(0); p < probes; p++ {
					if _, ok := scratch[p*7]; ok {
						hits++
					}
				}
			}
			sinkInt = hits
		})
	}
}

// BenchmarkRecyclingDrain measures the full retire → phase swap → drain
// pipeline on one thread: per iteration it retires four blocks' worth of
// slots and runs the phases needed to recycle them, exercising the hoisted
// block pointers, the nil recycle hook and the sorted snapshot probe.
func BenchmarkRecyclingDrain(b *testing.B) {
	const localPool = 126
	m := NewManager[node](Config{
		MaxThreads: 4, Capacity: 1 << 14, LocalPool: localPool, OwnerHPs: 5,
	}, resetNode)
	// Publish hazard pointers on the other threads so drain exercises both
	// the protected and unprotected routes.
	for _, th := range m.threads[1:] {
		for i := 0; i < len(th.hps); i += tripleWords {
			lo := uint64(3*i*localPool) + 1
			a, b := th.pack(lo, lo+localPool, lo+2*localPool)
			th.hps[i].Store(a)
			th.hps[i+1].Store(b)
		}
	}
	t0 := m.Thread(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4*localPool; j++ {
			t0.Retire(t0.Alloc())
		}
		t0.FlushRetired()
		t0.Recycling()
		t0.Recycling()
	}
	b.ReportMetric(float64(4*localPool), "slots/op")
}

// BenchmarkAllocRetireContended drives the full alloc/retire/recycle
// pipeline from all procs at once: every refill, flush and drain pass
// meets the others on the three pools' head words.
func BenchmarkAllocRetireContended(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	// RunParallel spawns GOMAXPROCS goroutines by default; the 4× headroom
	// covers -test.cpu sweeps without sharing contexts.
	m := NewManager[node](Config{
		MaxThreads: 4 * procs, Capacity: procs * 4096, LocalPool: 126,
	}, resetNode)
	var ids atomic.Int32
	b.RunParallel(func(pb *testing.PB) {
		th := m.Thread(int(ids.Add(1)-1) % (4 * procs))
		for pb.Next() {
			th.Retire(th.Alloc())
		}
	})
}

var sinkInt int
