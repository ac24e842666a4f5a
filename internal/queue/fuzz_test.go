package queue_test

import (
	"testing"

	"repro/internal/dstest"
	"repro/internal/queue"
	"repro/internal/smr"
)

// FuzzQueueVsModel drives the Michael-Scott queue under every scheme it is
// built for with a byte-encoded enqueue/dequeue sequence against a model
// slice, on a tiny arena so that sentinels recycle constantly.
func FuzzQueueVsModel(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0, 0, 0, 1, 0})
	f.Add([]byte{0})
	f.Add([]byte{1, 1, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, sc := range []smr.Scheme{smr.NoRecl, smr.OA, smr.HP, smr.EBR} {
			q, err := queue.New(sc, dstest.FuzzSizing(sc, 300, len(data)))
			if err != nil {
				t.Fatal(err)
			}
			t.Run(sc.String(), func(t *testing.T) { runQueueVsModel(t, q.QueueSession(0), data) })
		}
	})
}

func runQueueVsModel(t *testing.T, s smr.QueueSession, data []byte) {
	var model []uint64
	next := uint64(1)
	for i, b := range data {
		if b&1 == 1 && len(model) < 256 {
			s.Enqueue(next)
			model = append(model, next)
			next++
		} else {
			v, ok := s.Dequeue()
			if len(model) == 0 {
				if ok {
					t.Fatalf("op %d: dequeued %d from empty queue", i, v)
				}
				continue
			}
			if !ok || v != model[0] {
				t.Fatalf("op %d: Dequeue = %d,%v want %d", i, v, ok, model[0])
			}
			model = model[1:]
		}
	}
	for _, want := range model {
		v, ok := s.Dequeue()
		if !ok || v != want {
			t.Fatalf("drain: Dequeue = %d,%v want %d", v, ok, want)
		}
	}
	if _, ok := s.Dequeue(); ok {
		t.Fatal("queue not empty after drain")
	}
}
