package pools

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestBlockPushPop(t *testing.T) {
	ba := NewBlockArena(1000, BlockCap, 1)
	idx := ba.Get()
	b := ba.B(idx)
	if !b.Empty() {
		t.Fatal("fresh block not empty")
	}
	for i := uint32(0); i < BlockCap; i++ {
		b.Push(i * 3)
	}
	if !b.Full(BlockCap) {
		t.Fatal("block should be full")
	}
	for i := int32(BlockCap) - 1; i >= 0; i-- {
		if got := b.Pop(); got != uint32(i)*3 {
			t.Fatalf("Pop = %d, want %d", got, uint32(i)*3)
		}
	}
	if !b.Empty() {
		t.Fatal("block should be empty")
	}
}

func TestBlockArenaRecycles(t *testing.T) {
	ba := NewBlockArena(1000, BlockCap, 1)
	a := ba.Get()
	ba.B(a).Push(1)
	ba.B(a).Pop()
	ba.Put(a)
	b := ba.Get()
	if a != b {
		t.Fatalf("freelist did not recycle: got %d, want %d", b, a)
	}
	if !ba.B(b).Empty() {
		t.Fatal("recycled block must come back empty")
	}
}

func TestBlockArenaGetConcurrent(t *testing.T) {
	ba := NewBlockArena(100, BlockCap, 1)
	const workers, per = 8, 500
	var mu sync.Mutex
	seen := map[uint32]int{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]uint32, 0, per)
			for i := 0; i < per; i++ {
				idx := ba.Get()
				local = append(local, idx)
				if i%3 == 2 { // return some to stress the freelist
					ba.Put(local[len(local)-1])
					local = local[:len(local)-1]
				}
			}
			mu.Lock()
			for _, idx := range local {
				seen[idx]++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("block %d held by %d owners simultaneously", idx, n)
		}
	}
}

func TestVStackLIFO(t *testing.T) {
	ba := NewBlockArena(1000, BlockCap, 1)
	var s VStack
	s.Init(0)
	var blocks []uint32
	for i := 0; i < 5; i++ {
		idx := ba.Get()
		ba.B(idx).Push(uint32(i))
		if st := s.Push(ba, idx, 0); st != StatusOK {
			t.Fatalf("Push = %v", st)
		}
		blocks = append(blocks, idx)
	}
	for i := 4; i >= 0; i-- {
		idx, st := s.Pop(ba, 0)
		if st != StatusOK {
			t.Fatalf("Pop = %v", st)
		}
		if idx != blocks[i] {
			t.Fatalf("Pop order: got %d, want %d", idx, blocks[i])
		}
	}
	if _, st := s.Pop(ba, 0); st != StatusEmpty {
		t.Fatalf("empty Pop = %v, want StatusEmpty", st)
	}
}

func TestVStackVerMismatch(t *testing.T) {
	ba := NewBlockArena(100, BlockCap, 1)
	var s VStack
	s.Init(4)
	idx := ba.Get()
	if st := s.Push(ba, idx, 2); st != StatusVerMismatch {
		t.Fatalf("stale Push = %v, want VER-MISMATCH", st)
	}
	if _, st := s.Pop(ba, 6); st != StatusVerMismatch {
		t.Fatalf("future Pop = %v, want VER-MISMATCH", st)
	}
	if st := s.Push(ba, idx, 4); st != StatusOK {
		t.Fatalf("matching Push = %v", st)
	}
	// Freeze to an odd version: pushes at the old even version must fail.
	_, top := s.Load()
	if !s.CompareAndSwap(4, top, 5, top) {
		t.Fatal("freeze CAS failed")
	}
	idx2 := ba.Get()
	if st := s.Push(ba, idx2, 4); st != StatusVerMismatch {
		t.Fatalf("Push into frozen stack = %v, want VER-MISMATCH", st)
	}
	// A pop at the old version sees the phase move on, not an empty stack.
	if _, st := s.Pop(ba, 4); st != StatusVerMismatch {
		t.Fatalf("Pop from frozen stack = %v, want VER-MISMATCH", st)
	}
	// Reset to the next even version, empty, as the phase swap does.
	if !s.CompareAndSwap(5, top, 6, NoBlock) {
		t.Fatal("reset CAS failed")
	}
	if _, st := s.Pop(ba, 6); st != StatusEmpty {
		t.Fatalf("Pop after reset = %v, want EMPTY", st)
	}
}

func TestVStackCASHead(t *testing.T) {
	ba := NewBlockArena(100, BlockCap, 1)
	var s VStack
	s.Init(0)
	idx := ba.Get()
	s.Push(ba, idx, 0)
	v, top := s.Load()
	if v != 0 || top != idx {
		t.Fatalf("Load = %d,%d", v, top)
	}
	if s.CompareAndSwap(1, top, 2, NoBlock) {
		t.Fatal("CAS with wrong version succeeded")
	}
	if !s.CompareAndSwap(0, top, 2, NoBlock) {
		t.Fatal("CAS with right head failed")
	}
	if got := s.Ver(); got != 2 {
		t.Fatalf("Ver = %d", got)
	}
}

func TestCountedStackConcurrentTransfer(t *testing.T) {
	// Producers push blocks of slots; consumers pop and recycle the block
	// structs, maximizing block-reuse ABA pressure. Every produced slot
	// must be consumed exactly once.
	ba := NewBlockArena(4096, BlockCap, 1)
	var s CountedStack
	s.Init()
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
			cur := ba.Get()
			for i := 0; i < perProducer; i++ {
				ba.B(cur).Push(uint32(p*perProducer + i))
				if ba.B(cur).Full(BlockCap) {
					s.Push(ba, cur)
					cur = ba.Get()
				}
			}
			if !ba.B(cur).Empty() {
				s.Push(ba, cur)
			} else {
				ba.Put(cur)
			}
		}(p)
	}
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				idx, st := s.Pop(ba)
				if st != StatusOK {
					select {
					case <-done:
						// final drain
						idx, st = s.Pop(ba)
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
		}()
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
}

func TestVStackConcurrentPushSingleVersion(t *testing.T) {
	// Mirrors one phase: the retirePool takes concurrent pushes only, and
	// the processingPool it becomes takes concurrent pops only. Every
	// pushed block must be popped exactly once.
	ba := NewBlockArena(4096, BlockCap, 1)
	var s VStack
	s.Init(10)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				idx := ba.Get()
				ba.B(idx).Push(uint32(w*per + i))
				if st := s.Push(ba, idx, 10); st != StatusOK {
					t.Errorf("Push = %v", st)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	_, top := s.Load()
	blocks, slots := ChainLen(ba, top)
	if blocks != workers*per || slots != workers*per {
		t.Fatalf("chain has %d blocks / %d slots, want %d", blocks, slots, workers*per)
	}
	popped := make([][]uint32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				idx, st := s.Pop(ba, 10)
				if st != StatusOK {
					return
				}
				popped[w] = append(popped[w], ba.B(idx).Slots[0])
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint32]bool, workers*per)
	for _, slots := range popped {
		for _, slot := range slots {
			if seen[slot] {
				t.Fatalf("slot %d popped twice", slot)
			}
			seen[slot] = true
		}
	}
	if len(seen) != workers*per {
		t.Fatalf("popped %d slots, want %d", len(seen), workers*per)
	}
	if _, st := s.Pop(ba, 10); st != StatusEmpty {
		t.Fatalf("drained Pop = %v, want EMPTY", st)
	}
}

func TestCountedStackPushRange(t *testing.T) {
	ba := NewBlockArena(64, BlockCap, 1)
	var s CountedStack
	s.Init()
	s.PushRange(ba, 100, 10, 4)
	// LIFO: the partial block pushed last comes off first.
	want := [][]uint32{{108, 109}, {104, 105, 106, 107}, {100, 101, 102, 103}}
	for _, w := range want {
		idx, st := s.Pop(ba)
		if st != StatusOK {
			t.Fatalf("Pop = %v", st)
		}
		b := ba.B(idx)
		if got := b.Slots[:b.N]; !slices.Equal(got, w) {
			t.Fatalf("block = %v, want %v", got, w)
		}
	}
	if _, st := s.Pop(ba); st != StatusEmpty {
		t.Fatalf("Pop past the range = %v, want EMPTY", st)
	}
}

// Property: any sequence of pushes and pops on a single-threaded VStack
// behaves like a stack of blocks.
func TestVStackQuickLIFO(t *testing.T) {
	f := func(ops []bool) bool {
		ba := NewBlockArena(256, BlockCap, 1)
		var s VStack
		s.Init(0)
		var model []uint32
		for i, push := range ops {
			if push || len(model) == 0 {
				idx := ba.Get()
				ba.B(idx).Push(uint32(i))
				if s.Push(ba, idx, 0) != StatusOK {
					return false
				}
				model = append(model, idx)
			} else {
				idx, st := s.Pop(ba, 0)
				if st != StatusOK || idx != model[len(model)-1] {
					return false
				}
				model = model[:len(model)-1]
			}
		}
		for i := len(model) - 1; i >= 0; i-- {
			idx, st := s.Pop(ba, 0)
			if st != StatusOK || idx != model[i] {
				return false
			}
		}
		_, st := s.Pop(ba, 0)
		return st == StatusEmpty
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChainLenEmpty(t *testing.T) {
	ba := NewBlockArena(16, BlockCap, 1)
	if b, s := ChainLen(ba, NoBlock); b != 0 || s != 0 {
		t.Fatalf("ChainLen(NoBlock) = %d,%d", b, s)
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		StatusOK: "OK", StatusEmpty: "EMPTY", StatusVerMismatch: "VER-MISMATCH", Status(99): "invalid",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Fatalf("Status(%d).String() = %q, want %q", st, got, want)
		}
	}
}

// BenchmarkReadyPoolParallel measures the readyPool's push/pop cycle with
// every goroutine on the one head word.
func BenchmarkReadyPoolParallel(b *testing.B) {
	ba := NewBlockArena(1<<16, BlockCap, 1)
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
}
