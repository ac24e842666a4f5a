package list

import (
	"sync/atomic"
	"testing"

	"repro/internal/arena"
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
// hook, fails the first check; the suites elsewhere would pass. The reader
// stops once behind a node (key 2) and once behind the list's root word
// (key 1), where HP has no predecessor to pin but must still pin cur and
// next.
func TestReaderPinsRetiredNode(t *testing.T) {
	const threshold = 8
	for _, sc := range []smr.Scheme{smr.HP, smr.Anchors} {
		t.Run(sc.String(), func(t *testing.T) {
			t.Run("behind-node", func(t *testing.T) { readerPins(t, sc, 2, threshold) })
			t.Run("behind-root", func(t *testing.T) { readerPins(t, sc, 1, threshold) })
		})
	}
}

func readerPins(t *testing.T, sc smr.Scheme, key uint64, threshold int) {
	e, err := NewGuardedEngine(sc, sizing.Config{MaxThreads: 2, Capacity: 256, ScanThreshold: threshold, AnchorsK: 1})
	if err != nil {
		t.Fatal(err)
	}
	var root atomic.Uint64
	reader, writer := e.Thread(0).(*guardedThread), e.Thread(1)
	for k := uint64(1); k <= 3; k++ {
		writer.InsertAt(&root, k)
	}
	first := arena.Ptr(root.Load()).Slot() // key 1's node
	link, cur, next, _, ok := reader.search(&root, key)
	if !ok {
		t.Fatalf("search did not find key %d", key)
	}
	if (link == &root) != (key == 1) {
		t.Fatalf("search for key %d returned the wrong link word", key)
	}
	pinned := []uint32{cur.Slot(), next.Slot()}
	if sc == smr.HP && key == 2 {
		pinned = append(pinned, first) // prev
	}
	a := e.Arena()
	gens := make([]uint32, len(pinned))
	for i, slot := range pinned {
		gens[i] = a.Gen(slot)
	}
	churn := func() {
		for i := 0; i < 4*threshold; i++ {
			k := uint64(100 + i%threshold)
			writer.InsertAt(&root, k)
			writer.DeleteAt(&root, k)
		}
	}
	for k := uint64(1); k <= 3; k++ {
		if !writer.DeleteAt(&root, k) {
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
}
