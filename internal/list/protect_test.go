package list

import (
	"testing"

	"repro/internal/sizing"
	"repro/internal/smr"
)

// TestReaderPinsRetiredNode checks the guard's per-hop protection
// deterministically. A reader stopped mid-search leaves its protection on
// the nodes around it: HP's hazard pointers on prev, cur and next, or with
// K = 1 an Anchors anchor on cur, which spares cur and its successor (the
// reader never began an operation, so no era spares anything). A writer
// deletes every key and churns past the scan threshold; no pinned node may
// be recycled. Once the reader's guard ends its operation, more churn must
// recycle them. A guard wired to the wrong scheme thread, or a dropped
// hook, fails the first check; the suites elsewhere would pass.
func TestReaderPinsRetiredNode(t *testing.T) {
	const threshold = 8
	for _, sc := range []smr.Scheme{smr.HP, smr.Anchors} {
		t.Run(sc.String(), func(t *testing.T) {
			e, err := NewGuardedEngine(sc, sizing.Config{MaxThreads: 2, Capacity: 256, ScanThreshold: threshold, AnchorsK: 1})
			if err != nil {
				t.Fatal(err)
			}
			head := e.NewHead()
			reader, writer := e.Thread(0).(*guardedThread), e.Thread(1)
			for k := uint64(1); k <= 3; k++ {
				writer.InsertAt(head, k)
			}
			prevSlot, cur, next, _, ok := reader.search(head, 2)
			if !ok {
				t.Fatal("search did not find key 2")
			}
			pinned := []uint32{cur.Slot(), next.Slot()}
			if sc == smr.HP {
				pinned = append(pinned, prevSlot)
			}
			a := e.Arena()
			gens := make([]uint32, len(pinned))
			for i, slot := range pinned {
				gens[i] = a.Gen(slot)
			}
			churn := func() {
				for i := 0; i < 4*threshold; i++ {
					k := uint64(100 + i%threshold)
					writer.InsertAt(head, k)
					writer.DeleteAt(head, k)
				}
			}
			for k := uint64(1); k <= 3; k++ {
				if !writer.DeleteAt(head, k) {
					t.Fatalf("delete of key %d failed", k)
				}
			}
			churn()
			if st := e.Stats(); st.Phases == 0 {
				t.Fatalf("churn ran no scan: %+v", st)
			}
			for i, slot := range pinned {
				if a.Gen(slot) != gens[i] {
					t.Fatalf("pinned node %d recycled while the reader still protects it", i)
				}
			}
			reader.g.End()
			churn()
			for i, slot := range pinned {
				if a.Gen(slot) == gens[i] {
					t.Fatalf("pinned node %d not recycled after the reader's guard ended", i)
				}
			}
		})
	}
}
