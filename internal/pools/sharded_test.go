package pools

import (
	"runtime"
	"sync"
	"testing"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{
		-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 7: 8, 8: 8, 9: 16, 63: 64, 64: 64, 65: 128,
	}
	for n, want := range cases {
		if got := NextPow2(n); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestShardedCountedInitRounding(t *testing.T) {
	var s ShardedCountedStack
	s.Init(5)
	if s.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", s.NumShards())
	}
	s.Init(1000)
	if s.NumShards() != MaxShards {
		t.Fatalf("NumShards = %d, want cap %d", s.NumShards(), MaxShards)
	}
}

func TestShardedCountedHomeAffinity(t *testing.T) {
	ba := NewBlockArena(1024)
	var s ShardedCountedStack
	s.Init(4)
	rng := uint64(1)
	// A push to home h must come back from a pop at home h with no steal.
	for home := uint32(0); home < 4; home++ {
		idx := ba.Get()
		ba.B(idx).Push(home)
		s.Push(ba, idx, home)
		got, st := s.Pop(ba, home, &rng)
		if st != StatusOK || got != idx {
			t.Fatalf("Pop(home=%d) = %d,%v, want %d,OK", home, got, st, idx)
		}
		if _, st := s.Pop(ba, home, &rng); st != StatusEmpty {
			t.Fatalf("Pop(home=%d) after its one block = %v, want EMPTY", home, st)
		}
		ba.Put(got)
	}
	if s.TotalSteals() != 0 {
		t.Fatalf("home-affine traffic recorded %d steals", s.TotalSteals())
	}
}

func TestShardedCountedStealFindsEveryShard(t *testing.T) {
	ba := NewBlockArena(1024)
	var s ShardedCountedStack
	s.Init(8)
	// Stock only shard 5; pops homed at 0 must steal it, and a further pop
	// must sweep every shard before reporting empty.
	idx := ba.Get()
	s.Push(ba, idx, 5)
	rng := uint64(42)
	got, st := s.Pop(ba, 0, &rng)
	if st != StatusOK || got != idx {
		t.Fatalf("steal Pop = %d,%v, want %d,OK", got, st, idx)
	}
	if s.Steals(5) != 1 || s.TotalSteals() != 1 {
		t.Fatalf("steal not counted on victim shard: shard5=%d total=%d", s.Steals(5), s.TotalSteals())
	}
	if _, st := s.Pop(ba, 0, &rng); st != StatusEmpty {
		t.Fatalf("empty sweep = %v, want EMPTY", st)
	}
}

func TestShardedCountedConcurrentTransfer(t *testing.T) {
	// The sharded readyPool under mixed homes: every produced slot is
	// consumed exactly once even with stealing and block-struct reuse.
	ba := NewBlockArena(4096)
	var s ShardedCountedStack
	s.Init(4)
	const producers, consumers, perProducer = 4, 4, 20000
	total := producers * perProducer
	var mu sync.Mutex
	got := make(map[uint32]int, total)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			home := uint32(p)
			cur := ba.Get()
			for i := 0; i < perProducer; i++ {
				ba.B(cur).Push(uint32(p*perProducer + i))
				if ba.B(cur).Full(BlockCap) {
					s.Push(ba, cur, home)
					cur = ba.Get()
				}
			}
			if !ba.B(cur).Empty() {
				s.Push(ba, cur, home)
			} else {
				ba.Put(cur)
			}
		}(p)
	}
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			// Consumer homes deliberately collide on shard (c+1)&3 so some
			// pops hit the steal path.
			home := uint32(c + 1)
			rng := uint64(c)*0x9E3779B97F4A7C15 + 1
			for {
				idx, st := s.Pop(ba, home, &rng)
				if st != StatusOK {
					select {
					case <-done:
						idx, st = s.Pop(ba, home, &rng)
						if st != StatusOK {
							return
						}
					default:
						continue
					}
				}
				b := ba.B(idx)
				mu.Lock()
				for i := int32(0); i < b.N; i++ {
					got[b.Slots[i]]++
				}
				mu.Unlock()
				b.N = 0
				ba.Put(idx)
			}
		}(c)
	}
	wg.Wait()
	close(done)
	cwg.Wait()
	if len(got) != total {
		t.Fatalf("consumed %d distinct slots, want %d", len(got), total)
	}
	for slot, n := range got {
		if n != 1 {
			t.Fatalf("slot %d consumed %d times", slot, n)
		}
	}
	rng := uint64(9)
	for i := 0; i < s.NumShards(); i++ {
		if _, st := s.Pop(ba, uint32(i), &rng); st != StatusEmpty {
			t.Fatalf("Pop(home=%d) after full drain = %v, want EMPTY", i, st)
		}
	}
}

func TestShardedVStackVersionSemantics(t *testing.T) {
	ba := NewBlockArena(1024)
	var s ShardedVStack
	s.Init(4, 0)
	rng := uint64(7)
	if !s.EmptyAt(0) {
		t.Fatal("fresh pool not EmptyAt(0)")
	}
	if v, stable := s.Scan(); v != 0 || !stable {
		t.Fatalf("Scan = %d,%v, want 0,stable", v, stable)
	}
	idx := ba.Get()
	if st := s.Push(ba, idx, 2, 1); st != StatusVerMismatch {
		t.Fatalf("stale Push = %v, want VER-MISMATCH", st)
	}
	if st := s.Push(ba, idx, 0, 1); st != StatusOK {
		t.Fatalf("Push = %v", st)
	}
	if s.EmptyAt(0) {
		t.Fatal("EmptyAt(0) with a block present")
	}
	// Freeze shard 1 (the one holding the block): Scan turns unstable with
	// evenFloor(min)=0, and pops at 0 report mismatch, not empty.
	if _, h := s.LoadShard(1); !s.CASShard(1, 0, h, 1, h) {
		t.Fatal("freeze CAS failed")
	}
	if v, stable := s.Scan(); v != 0 || stable {
		t.Fatalf("Scan mid-freeze = %d,%v, want 0,unstable", v, stable)
	}
	if _, st := s.Pop(ba, 0, 0, &rng); st != StatusVerMismatch {
		t.Fatalf("Pop across frozen shard = %v, want VER-MISMATCH", st)
	}
	// All shards frozen odd: still unstable (odd), mismatch everywhere.
	for i := 0; i < 4; i++ {
		v, h := s.LoadShard(i)
		if v == 0 {
			s.CASShard(i, 0, h, 1, h)
		}
	}
	if _, stable := s.Scan(); stable {
		t.Fatal("all-odd pool must not scan stable")
	}
	// Advance everyone to 2 (emptying shard 1's chain like a swap would).
	for i := 0; i < 4; i++ {
		_, h := s.LoadShard(i)
		if !s.CASShard(i, 1, h, 2, NoBlock) {
			t.Fatalf("advance CAS failed on shard %d", i)
		}
	}
	if v, stable := s.Scan(); v != 2 || !stable {
		t.Fatalf("Scan = %d,%v, want 2,stable", v, stable)
	}
	if !s.EmptyAt(2) {
		t.Fatal("pool not EmptyAt(2) after advance")
	}
}

func TestShardedVStackStealAndConservation(t *testing.T) {
	ba := NewBlockArena(4096)
	var s ShardedVStack
	s.Init(4, 6)
	const blocks = 64
	pushed := map[uint32]bool{}
	for i := 0; i < blocks; i++ {
		idx := ba.Get()
		ba.B(idx).Push(uint32(i))
		if st := s.Push(ba, idx, 6, uint32(i)); st != StatusOK {
			t.Fatalf("Push = %v", st)
		}
		pushed[idx] = true
	}
	if b, sl := s.ChainStats(ba); b != blocks || sl != blocks {
		t.Fatalf("ChainStats = %d,%d, want %d,%d", b, sl, blocks, blocks)
	}
	// Pop everything from home 0: three quarters of the blocks are steals.
	rng := uint64(3)
	for i := 0; i < blocks; i++ {
		idx, st := s.Pop(ba, 6, 0, &rng)
		if st != StatusOK {
			t.Fatalf("Pop %d = %v", i, st)
		}
		if !pushed[idx] {
			t.Fatalf("Pop returned unknown block %d", idx)
		}
		delete(pushed, idx)
	}
	if _, st := s.Pop(ba, 6, 0, &rng); st != StatusEmpty {
		t.Fatalf("drained Pop = %v, want EMPTY", st)
	}
	if s.AnyBlocks() {
		t.Fatal("AnyBlocks true after full drain")
	}
	if s.TotalSteals() != blocks*3/4 {
		t.Fatalf("TotalSteals = %d, want %d", s.TotalSteals(), blocks*3/4)
	}
	if b, sl := s.ChainStats(ba); b != 0 || sl != 0 {
		t.Fatalf("ChainStats after drain = %d,%d, want 0,0", b, sl)
	}
}

// BenchmarkReadyPoolParallel measures the readyPool push/pop cycle under
// all-threads contention, flat stack versus sharded. On a single global
// head every iteration is a CAS convoy; with sharding each goroutine's
// traffic stays on its home shard.
func BenchmarkReadyPoolParallel(b *testing.B) {
	b.Run("flat", func(b *testing.B) {
		ba := NewBlockArena(1 << 16)
		var s CountedStack
		s.Init()
		for i := 0; i < 256; i++ {
			s.Push(ba, ba.Get())
		}
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				idx, st := s.Pop(ba)
				if st != StatusOK {
					idx = ba.Get()
				}
				s.Push(ba, idx)
			}
		})
	})
	b.Run("sharded", func(b *testing.B) {
		ba := NewBlockArena(1 << 16)
		var s ShardedCountedStack
		s.Init(runtime.GOMAXPROCS(0))
		for i := 0; i < 256; i++ {
			s.Push(ba, ba.Get(), uint32(i))
		}
		var homeSeq uint32
		var mu sync.Mutex
		b.RunParallel(func(pb *testing.PB) {
			mu.Lock()
			home := homeSeq
			homeSeq++
			mu.Unlock()
			rng := uint64(home)*0x9E3779B97F4A7C15 + 1
			for pb.Next() {
				idx, st := s.Pop(ba, home, &rng)
				if st != StatusOK {
					idx = ba.Get()
				}
				s.Push(ba, idx, home)
			}
		})
	})
}
