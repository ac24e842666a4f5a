package skiplist

import (
	"testing"

	"repro/internal/sizing"
	"repro/internal/smr"
)

// TestReaderPinsRetiredNode checks HP's per-hop protection
// deterministically. A reader stopped after find leaves its hazard pointers
// on every pred and succ it recorded. A writer deletes every key and churns
// past the scan threshold; no pinned node may be recycled. Once the
// reader's guard ends its operation, more churn must recycle them. A guard
// wired to the wrong scheme thread, or a dropped hook, fails the first
// check.
func TestReaderPinsRetiredNode(t *testing.T) {
	const threshold = 8
	set, err := New(smr.HP, sizing.Config{MaxThreads: 2, Capacity: 256, ScanThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	sl := set.(*guarded)
	rec := new(smr.Gens) // the slots' generations, bumped on every free
	sl.OnRecycle(rec.Bump)
	reader, writer := sl.Session(0).(*session), sl.Session(1)
	const keys = 32
	for k := uint64(1); k <= keys; k++ {
		writer.Insert(k)
	}
	if !reader.find(2) {
		t.Fatal("find did not find key 2")
	}
	pinned := map[uint32]uint32{} // slot → generation
	for l := 0; l < MaxLevel; l++ {
		if p := reader.preds[l]; p != sl.head {
			pinned[p] = rec.Gen(p)
		}
		if s := reader.succs[l]; !s.IsNil() {
			pinned[s.Slot()] = rec.Gen(s.Slot())
		}
	}
	churn := func() {
		for i := 0; i < 4*threshold; i++ {
			k := uint64(100 + i%threshold)
			writer.Insert(k)
			writer.Delete(k)
		}
	}
	for k := uint64(1); k <= keys; k++ {
		if !writer.Delete(k) {
			t.Fatalf("delete of key %d failed", k)
		}
	}
	churn()
	if st := sl.Stats(); st.Phases == 0 {
		t.Fatalf("churn ran no scan: %+v", st)
	}
	for slot, gen := range pinned {
		if rec.Gen(slot) != gen {
			t.Fatalf("pinned slot %d recycled while the reader still protects it", slot)
		}
	}
	reader.g.End()
	churn()
	for slot, gen := range pinned {
		if rec.Gen(slot) == gen {
			t.Fatalf("pinned slot %d not recycled after the reader's guard ended", slot)
		}
	}
}
