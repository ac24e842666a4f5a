package arena

import (
	"sync"
	"testing"
)

// A View and the arena reach every slot alike, pointer for pointer and
// count for count: slots inside the flat region (which View.At indexes
// directly and which holds exactly New's initial capacity), slots beyond
// it, and slots created by growth after the View was taken. Without an
// initial capacity there is no flat region, and every slot goes through
// the directory.
func TestViewSeesGrowth(t *testing.T) {
	for _, initial := range []int{2*ChunkSize + 7, 0} {
		a := New[testNode](initial)
		var slots []uint32 // every slot handed out, in order
		reserve := func(n int) {
			base := a.Reserve(n)
			for i := range uint32(n) {
				slots = append(slots, base+i)
			}
		}
		if initial > 0 {
			reserve(initial)
		}
		reserve(ChunkSize + 3) // beyond the flat region, before the View
		v := a.View()
		if len(v.nodes) != initial {
			t.Fatalf("New(%d): flat region of %d nodes, want %d", initial, len(v.nodes), initial)
		}
		reserve(2 * ChunkSize) // growth after the View was taken
		seen := make(map[*testNode]bool, len(slots))
		for _, s := range slots {
			p := v.At(s)
			if p != a.At(s) || seen[p] || (int(s) < initial && p != &v.nodes[s]) {
				t.Fatalf("New(%d) slot %d: View.At %p, Arena.At %p, already seen %v", initial, s, p, a.At(s), seen[p])
			}
			seen[p] = true
			p.key = uint64(s)
			for k := uint32(0); k < s%3; k++ {
				if k == 0 {
					v.At(s).gen.Add(1)
				} else {
					a.At(s).gen.Add(1)
				}
			}
		}
		for _, s := range slots {
			if a.At(s).key != uint64(s) || a.At(s).gen.Load() != s%3 {
				t.Fatalf("New(%d) slot %d: key %d, gen %d; want %d and %d", initial, s, a.At(s).key, a.At(s).gen.Load(), s, s%3)
			}
		}
		if w := a.View(); len(w.nodes) != initial || (initial > 0 && &w.nodes[0] != &v.nodes[0]) {
			t.Fatalf("New(%d): growth moved the flat region", initial)
		}
	}
}

// A reservation that does not fit what is left of the flat region starts
// at the chunk boundary after it: the directory has no chunk for the
// region's last, partial one, so that chunk's tail is skipped and its
// directory entries stay nil. A region that ends on a boundary has no
// tail, and a reservation runs straight across its end. Either way every
// slot handed out reaches one node and one generation counter, by View
// and by Arena alike.
func TestReserveAcrossFlatEnd(t *testing.T) {
	for _, c := range []struct {
		flat, first, across int
		wantAcross          uint32 // where the reservation across the end starts
		wantCap             uint32 // Cap after it
	}{
		{ChunkSize + 100, ChunkSize + 90, 20, 2 * ChunkSize, 3 * ChunkSize},
		{ChunkSize, ChunkSize - 4, 8, ChunkSize - 4, 2 * ChunkSize},
	} {
		a := New[testNode](c.flat)
		if a.Cap() != uint32(c.flat) {
			t.Fatalf("New(%d): Cap %d, want %d", c.flat, a.Cap(), c.flat)
		}
		first := a.Reserve(c.first)
		across := a.Reserve(c.across)
		after := a.Reserve(5)
		if first != 0 || across != c.wantAcross || after != across+uint32(c.across) || a.Cap() != c.wantCap {
			t.Fatalf("New(%d): Reserve at %d, %d, %d and Cap %d; want 0, %d, %d and %d",
				c.flat, first, across, after, a.Cap(), c.wantAcross, c.wantAcross+uint32(c.across), c.wantCap)
		}
		d := a.dir.Load()
		for i := uint32(0); i < c.wantAcross>>ChunkShift; i++ {
			if d.nodes[i] != nil {
				t.Fatalf("New(%d): directory entry %d below the boundary is set", c.flat, i)
			}
		}
		var slots []uint32
		for s := uint32(0); s < uint32(c.first); s++ {
			slots = append(slots, s)
		}
		for s := across; s < a.Limit(); s++ {
			slots = append(slots, s)
		}
		v := a.View()
		seen := make(map[*testNode]bool, len(slots))
		for _, s := range slots {
			p := v.At(s)
			if p != a.At(s) || seen[p] {
				t.Fatalf("New(%d) slot %d: View.At %p, Arena.At %p, already seen %v", c.flat, s, p, a.At(s), seen[p])
			}
			seen[p] = true
			if s%2 == 0 {
				v.At(s).gen.Add(1)
			} else {
				a.At(s).gen.Add(1)
			}
		}
		for _, s := range slots {
			if a.At(s).gen.Load() != 1 || v.At(s).gen.Load() != 1 {
				t.Fatalf("New(%d) slot %d: gen %d by Arena, %d by View; want 1 and 1", c.flat, s, a.At(s).gen.Load(), v.At(s).gen.Load())
			}
		}
	}
}

// A View and the arena bump one shared generation counter per slot (the
// test node's), and a View taken before growth reaches the counters of
// slots created after it.
func TestViewGens(t *testing.T) {
	a := New[testNode](ChunkSize)
	v := a.View()
	base := a.Reserve(4)
	if g := v.At(base).gen.Load(); g != 0 {
		t.Fatalf("fresh gen = %d", g)
	}
	v.At(base).gen.Add(1)
	a.At(base).gen.Add(1)
	if got := v.At(base).gen.Load(); got != 2 {
		t.Fatalf("gen = %d after view+arena bump, want 2 (shared counter)", got)
	}
	grown := a.Reserve(2 * ChunkSize)
	v2 := v // copy taken before the growth
	v2.At(grown + ChunkSize + 5).gen.Add(1)
	if got := a.At(grown + ChunkSize + 5).gen.Load(); got != 1 {
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
