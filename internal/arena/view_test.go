package arena

import (
	"sync"
	"testing"
)

// A View and the arena reach every slot alike, pointer for pointer and
// count for count: slots inside the flat region (which View.At indexes
// directly), slots beyond it, and slots created by growth after the View
// was taken. Without an initial capacity there is no flat region, and
// every slot goes through the directory.
func TestViewSeesGrowth(t *testing.T) {
	for _, initial := range []int{2*ChunkSize + 7, 0} {
		a := New[testNode](initial)
		flat := (initial + ChunkSize - 1) &^ chunkMask
		if initial > 0 {
			a.Reserve(initial)
		}
		a.Reserve(ChunkSize + 3) // beyond the flat region, before the View
		v := a.View()
		if len(v.nodes) != flat || len(v.gens) != flat {
			t.Fatalf("New(%d): flat region of %d nodes and %d gens, want %d", initial, len(v.nodes), len(v.gens), flat)
		}
		a.Reserve(2 * ChunkSize) // growth after the View was taken
		seen := make(map[*testNode]bool, a.Limit())
		for s := uint32(0); s < a.Limit(); s++ {
			p := v.At(s)
			if p != a.At(s) || seen[p] || (int(s) < flat && p != &v.nodes[s]) {
				t.Fatalf("New(%d) slot %d: View.At %p, Arena.At %p, already seen %v", initial, s, p, a.At(s), seen[p])
			}
			seen[p] = true
			p.key = uint64(s)
			for k := uint32(0); k < s%3; k++ {
				if k == 0 {
					v.BumpGen(s)
				} else {
					a.BumpGen(s)
				}
			}
		}
		for s := uint32(0); s < a.Limit(); s++ {
			if a.At(s).key != uint64(s) || a.Gen(s) != s%3 {
				t.Fatalf("New(%d) slot %d: key %d, gen %d; want %d and %d", initial, s, a.At(s).key, a.Gen(s), s, s%3)
			}
		}
		if w := a.View(); len(w.nodes) != flat || (flat > 0 && &w.nodes[0] != &v.nodes[0]) {
			t.Fatalf("New(%d): growth moved the flat region", initial)
		}
	}
}

// A View and the arena bump one shared generation counter per slot, and a
// View taken before growth reaches the counters of slots created after it.
func TestViewGens(t *testing.T) {
	a := New[testNode](ChunkSize)
	v := a.View()
	base := a.Reserve(4)
	if g := v.gen(base).Load(); g != 0 {
		t.Fatalf("fresh gen = %d", g)
	}
	v.BumpGen(base)
	a.BumpGen(base)
	if got := v.gen(base).Load(); got != 2 {
		t.Fatalf("gen = %d after view+arena bump, want 2 (shared counter)", got)
	}
	grown := a.Reserve(2 * ChunkSize)
	v2 := v // copy taken before the growth
	v2.BumpGen(grown + ChunkSize + 5)
	if got := a.Gen(grown + ChunkSize + 5); got != 1 {
		t.Fatalf("gen = %d after bump through an earlier View, want 1", got)
	}
}

// Stale views on many goroutines must converge on slots published by a
// concurrently growing arena (exercised under -race).
func TestViewConcurrentGrowth(t *testing.T) {
	a := New[testNode](ChunkSize)
	const workers = 4
	const rounds = 64
	slots := make(chan uint32, workers*rounds)
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	go func() {
		defer wg.Done()
		for i := 0; i < workers*rounds; i++ {
			s := a.Reserve(ChunkSize / 2)
			a.At(s).key = uint64(s) + 1
			slots <- s
		}
		close(slots)
	}()
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			v := a.View()
			for s := range slots {
				if got := v.At(s).key; got != uint64(s)+1 {
					t.Errorf("slot %d: key = %d, want %d", s, got, uint64(s)+1)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkArenaAt times View.At, one hop of a traversal, on its two
// paths: a slot inside the flat region, and a slot behind the chunk
// directory (an arena with no initial capacity). "Walk" chases next links
// through a shuffled cycle (dependent loads, list-like); "Sum" touches
// independent slots (throughput-bound, hash-bucket-like).
func BenchmarkArenaAt(b *testing.B) {
	const n = 1 << 12 // cache-resident: isolates dereference cost from DRAM
	const mask = n - 1
	// next links form one shuffled cycle through all n slots.
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	rng := splitmix(12345)
	for i := n - 1; i > 0; i-- {
		j := rng.next() % uint64(i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for _, path := range []struct {
		name    string
		initial int
	}{{"Flat", n}, {"Directory", 0}} {
		a := New[testNode](path.initial)
		base := a.Reserve(n)
		for i := range perm {
			a.At(base + perm[i]).next = uint64(base + perm[(i+1)%n])
		}
		v := a.View()
		b.Run("Walk/"+path.name, func(b *testing.B) {
			slot := base
			for i := 0; i < b.N; i++ {
				slot = uint32(v.At(slot).next)
			}
			sinkHole = uint64(slot)
		})
		b.Run("Sum/"+path.name, func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += v.At(base + uint32(i)&mask).key
			}
			sinkHole = sink
		})
	}
}

type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

var sinkHole uint64
