package arena

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestPtrNil(t *testing.T) {
	if !NilPtr.IsNil() {
		t.Fatal("NilPtr must be nil")
	}
	if NilPtr.Marked() {
		t.Fatal("NilPtr must be unmarked")
	}
	if NilPtr.Mark().IsNil() != true {
		t.Fatal("marked nil is still nil")
	}
	if got := NilPtr.String(); got != "nil" {
		t.Fatalf("String() = %q", got)
	}
	if got := NilPtr.Mark().String(); got != "nil*" {
		t.Fatalf("String() = %q", got)
	}
}

func TestPtrRoundTrip(t *testing.T) {
	for _, slot := range []uint32{0, 1, 2, 100, 1 << 20, 1<<31 - 1} {
		p := MakePtr(slot)
		if p.IsNil() {
			t.Fatalf("MakePtr(%d) is nil", slot)
		}
		if p.Marked() {
			t.Fatalf("MakePtr(%d) is marked", slot)
		}
		if got := p.Slot(); got != slot {
			t.Fatalf("Slot() = %d, want %d", got, slot)
		}
		m := p.Mark()
		if !m.Marked() {
			t.Fatalf("Mark() lost the mark for slot %d", slot)
		}
		if got := m.Unmark(); got != p {
			t.Fatalf("Unmark(Mark(p)) = %v, want %v", got, p)
		}
		if got := m.Slot(); got != slot {
			t.Fatalf("marked Slot() = %d, want %d", got, slot)
		}
	}
}

func TestPtrSlotOr(t *testing.T) {
	if got := NilPtr.SlotOr(42); got != 42 {
		t.Fatalf("nil SlotOr = %d", got)
	}
	if got := MakePtr(7).SlotOr(42); got != 7 {
		t.Fatalf("SlotOr = %d", got)
	}
}

// Property: packing and marking commute and never confuse distinct slots.
func TestPtrQuick(t *testing.T) {
	f := func(slot uint32, mark bool) bool {
		slot &= 1<<31 - 1
		p := MakePtr(slot)
		if mark {
			p = p.Mark()
		}
		return p.Slot() == slot && p.Marked() == mark && !p.IsNil() &&
			p.Unmark() == MakePtr(slot) && p.Mark().Marked()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPtrDistinct(t *testing.T) {
	f := func(a, b uint32) bool {
		a &= 1<<31 - 1
		b &= 1<<31 - 1
		if a == b {
			return MakePtr(a) == MakePtr(b)
		}
		return MakePtr(a) != MakePtr(b) && MakePtr(a).Mark() != MakePtr(b).Mark()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

type testNode struct {
	key  uint64
	next uint64
}

func TestArenaReserveAndAccess(t *testing.T) {
	a := New[testNode](10)
	if a.Cap() < 10 {
		t.Fatalf("Cap() = %d, want >= 10", a.Cap())
	}
	base := a.Reserve(100)
	for i := uint32(0); i < 100; i++ {
		a.At(base + i).key = uint64(i)
	}
	for i := uint32(0); i < 100; i++ {
		if got := a.At(base + i).key; got != uint64(i) {
			t.Fatalf("slot %d key = %d, want %d", base+i, got, i)
		}
	}
}

func TestArenaGrowthPreservesSlots(t *testing.T) {
	a := New[testNode](1)
	base := a.Reserve(ChunkSize / 2)
	a.At(base).key = 12345
	p := a.At(base)
	// Force several chunk growths.
	a.Reserve(5 * ChunkSize)
	if a.At(base).key != 12345 {
		t.Fatal("growth lost slot contents")
	}
	if a.At(base) != p {
		t.Fatal("growth moved a slot; handles must be stable forever")
	}
}

// The region behind New's capacity is one slice aliasing the chunk
// directory: indexing it, At and a View reach the same node and the same
// generation counter.
func TestFlatCoversReservedSlots(t *testing.T) {
	const n = 2*ChunkSize + 7 // three chunks, the last partly reserved
	a := New[testNode](n)
	base := a.Reserve(n)
	nodes, gens := a.Flat()
	if base != 0 || len(nodes) < n || len(gens) != len(nodes) {
		t.Fatalf("Reserve = %d, Flat = %d nodes and %d gens; want 0 and >= %d of each",
			base, len(nodes), len(gens), n)
	}
	v := a.View()
	for i := uint32(0); i < n; i++ {
		p := &nodes[i]
		if a.At(i) != p || v.At(i) != p {
			t.Fatalf("slot %d: flat %p, At %p, View.At %p", i, p, a.At(i), v.At(i))
		}
	}
	gens[n-1].Add(1)
	a.BumpGen(n - 1)
	if a.Gen(n-1) != 2 || v.Gen(n-1) != 2 || gens[n-1].Load() != 2 {
		t.Fatalf("gen of slot %d: Gen %d, View.Gen %d, flat %d; want 2 everywhere",
			n-1, a.Gen(n-1), v.Gen(n-1), gens[n-1].Load())
	}
	if nodes, gens := New[testNode](0).Flat(); nodes != nil || gens != nil {
		t.Fatal("New(0) must have no flat region")
	}
}

// Growth past the flat region hands out fresh, distinct slots through the
// directory, leaves the region as it was, and moves no earlier slot.
func TestGrowthPastFlat(t *testing.T) {
	a := New[testNode](ChunkSize)
	a.Reserve(ChunkSize)
	nodes, _ := a.Flat()
	first, last := &nodes[0], &nodes[ChunkSize-1]
	first.key, last.key = 1, 2
	const more = 3 * ChunkSize
	base := a.Reserve(more)
	if base != ChunkSize {
		t.Fatalf("Reserve past the region = %d, want %d", base, ChunkSize)
	}
	if again, _ := a.Flat(); len(again) != len(nodes) || &again[0] != first {
		t.Fatal("growth changed the flat region")
	}
	v := a.View()
	seen := map[*testNode]bool{first: true, last: true}
	for i := base; i < base+more; i++ {
		p := a.At(i)
		if seen[p] || v.At(i) != p {
			t.Fatalf("slot %d: At %p, View.At %p, already seen %v", i, p, v.At(i), seen[p])
		}
		seen[p] = true
		p.key = uint64(i)
	}
	for i := base; i < base+more; i++ {
		if a.At(i).key != uint64(i) {
			t.Fatalf("slot %d key = %d", i, a.At(i).key)
		}
	}
	if a.At(0) != first || a.At(ChunkSize-1) != last || first.key != 1 || last.key != 2 {
		t.Fatal("growth moved or changed a slot of the flat region")
	}
}

func TestArenaReserveSequential(t *testing.T) {
	a := New[testNode](0)
	b1 := a.Reserve(10)
	b2 := a.Reserve(10)
	if b2 != b1+10 {
		t.Fatalf("Reserve not consecutive: %d then %d", b1, b2)
	}
	if a.Limit() != b2+10 {
		t.Fatalf("Limit() = %d, want %d", a.Limit(), b2+10)
	}
}

func TestArenaGenerations(t *testing.T) {
	a := New[testNode](8)
	s := a.Reserve(1)
	if g := a.Gen(s); g != 0 {
		t.Fatalf("fresh gen = %d", g)
	}
	a.BumpGen(s)
	a.BumpGen(s)
	if g := a.Gen(s); g != 2 {
		t.Fatalf("gen = %d, want 2", g)
	}
}

func TestArenaConcurrentReserve(t *testing.T) {
	a := New[testNode](0)
	const workers = 8
	const per = 1000
	var wg sync.WaitGroup
	bases := make([]uint32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s := a.Reserve(1)
				a.At(s).key = uint64(w)<<32 | uint64(i)
			}
			bases[w] = a.Reserve(1)
		}(w)
	}
	wg.Wait()
	seen := map[uint32]bool{}
	for _, b := range bases {
		if seen[b] {
			t.Fatalf("slot %d handed out twice", b)
		}
		seen[b] = true
	}
	if a.Limit() != workers*(per+1) {
		t.Fatalf("Limit() = %d, want %d", a.Limit(), workers*(per+1))
	}
}

// Concurrent readers racing with growth must always see stable chunks.
func TestArenaReadDuringGrowth(t *testing.T) {
	a := New[testNode](1)
	s := a.Reserve(1)
	a.At(s).key = 7
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			a.Reserve(ChunkSize / 4)
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			if a.At(s).key != 7 {
				t.Error("reader observed corrupted slot during growth")
				return
			}
		}
	}
}

func TestReservePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reserve(0) must panic")
		}
	}()
	New[testNode](1).Reserve(0)
}
