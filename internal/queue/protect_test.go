package queue

import (
	"testing"

	"repro/internal/sizing"
	"repro/internal/smr"
)

// TestReaderPinsRetiredNode checks HP's protection deterministically. A
// reader stopped inside Dequeue, after reading the head and its successor,
// leaves its hazard pointers on the sentinel and its successor. A writer
// dequeues past both and churns past the scan threshold; neither may be
// recycled. Once the reader's guard ends its operation, more churn must
// recycle them. A guard wired to the wrong scheme thread, or a dropped hook,
// fails the first check.
func TestReaderPinsRetiredNode(t *testing.T) {
	const threshold = 8
	qq, err := New(smr.HP, sizing.Config{MaxThreads: 2, Capacity: 256, ScanThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	q := qq.(*guarded)
	rec := new(smr.Gens) // the slots' generations, bumped on every free
	q.OnRecycle(rec.Bump)
	reader, writer := q.QueueSession(0).(*session), q.QueueSession(1)
	writer.Enqueue(1)
	first, _, next, ok := reader.head()
	if !ok {
		t.Fatal("head moved under a single-threaded reader")
	}
	pinned := []uint32{first.Slot(), next.Slot()}
	gens := []uint32{rec.Gen(first.Slot()), rec.Gen(next.Slot())}
	churn := func() {
		for i := 0; i < 4*threshold; i++ {
			writer.Enqueue(uint64(i))
			writer.Dequeue()
		}
	}
	if v, ok := writer.Dequeue(); !ok || v != 1 {
		t.Fatalf("Dequeue = %d,%v, want 1", v, ok)
	}
	churn()
	if st := q.Stats(); st.Phases == 0 {
		t.Fatalf("churn ran no scan: %+v", st)
	}
	for i, slot := range pinned {
		if rec.Gen(slot) != gens[i] {
			t.Fatalf("pinned node %d recycled while the reader still protects it", i)
		}
	}
	reader.g.End()
	churn()
	for i, slot := range pinned {
		if rec.Gen(slot) == gens[i] {
			t.Fatalf("pinned node %d not recycled after the reader's guard ended", i)
		}
	}
}
