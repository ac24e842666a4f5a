package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one benchmark-side interval: a timed batch of calls into a
// module, a sampled request from send to reply, or the phase that
// contains them. Spans are recorded by the benchmark around the program;
// spans inside oaserver are a later change.
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Lane    int    `json:"lane"`              // 0 = coordinator, then workers or connections
	Request uint64 `json:"request,omitempty"` // request number on its connection
	StartNs int64  `json:"start_ns"`          // since the run began
	EndNs   int64  `json:"end_ns"`
}

// spanLane is one goroutine's span buffer, allocated before timing
// starts so recording is an append with no lock and no allocation. A nil
// lane records nothing, which is how untraced runs stay untouched. When
// the buffer is full later spans are counted, not kept.
type spanLane struct {
	t0      time.Time
	lane    int
	spans   []span
	seq     uint64
	dropped int
}

// laneSpans bounds one lane's buffer: room for every 256-call batch of
// the fastest structure over a traced phase.
const laneSpans = 1 << 19

// tracer owns the lanes of a traced run.
type tracer struct {
	lanes []*spanLane
}

func newTracer(t0 time.Time, lanes int) *tracer {
	t := &tracer{lanes: make([]*spanLane, lanes)}
	for i := range t.lanes {
		t.lanes[i] = &spanLane{t0: t0, lane: i, spans: make([]span, 0, laneSpans)}
	}
	return t
}

// lane returns lane i, or nil when the run is untraced.
func (t *tracer) lane(i int) *spanLane {
	if t == nil {
		return nil
	}
	return t.lanes[i]
}

// newID reserves an id, for a span that will be the parent of others
// before it is recorded itself. Ids are unique across lanes.
func (l *spanLane) newID() uint64 {
	if l == nil {
		return 0
	}
	l.seq++
	return uint64(l.lane+1)<<40 | l.seq
}

// record stores a finished span; id 0 asks for a fresh one.
func (l *spanLane) record(name string, id, parent, request uint64, start, end time.Time) {
	if l == nil {
		return
	}
	if id == 0 {
		id = l.newID()
	}
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{
		Name: name, ID: id, Parent: parent, Lane: l.lane, Request: request,
		StartNs: start.Sub(l.t0).Nanoseconds(), EndNs: end.Sub(l.t0).Nanoseconds(),
	})
}

// write dumps every lane as JSONL. Call only after the goroutines that
// recorded have been joined.
func (t *tracer) write(path string) (n int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	dropped := 0
	for _, l := range t.lanes {
		dropped += l.dropped
		for i := range l.spans {
			if err := enc.Encode(&l.spans[i]); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	if err := f.Close(); err != nil {
		return n, err
	}
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "bench: span buffers full, %d spans not kept\n", dropped)
	}
	return n, nil
}

// batchSize is how many calls or operations one timed batch makes: long
// enough that two clock reads vanish in it, short enough to keep
// thousands of batches per phase.
const batchSize = 256
