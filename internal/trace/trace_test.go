package trace

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestKindAndCauseNames(t *testing.T) {
	for k := Kind(1); k < numKinds; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(0).String() != "unknown" || Kind(200).String() != "unknown" {
		t.Fatalf("out-of-range kinds must stringify as unknown")
	}
	for c := Cause(1); c < numCauses; c++ {
		if c.String() == "unknown" || c.String() == "" {
			t.Fatalf("cause %d has no name", c)
		}
	}
	if Cause(0).String() != "unknown" || Cause(200).String() != "unknown" {
		t.Fatalf("out-of-range causes must stringify as unknown")
	}
}

func TestPayloadPacking(t *testing.T) {
	p := DrainPayload(7, 9)
	if p&0xFFFFFFFF != 7 || p>>32 != 9 {
		t.Fatalf("DrainPayload mispacked: %x", p)
	}
	if p := DrainPayload(1<<40, 1<<40); p&0xFFFFFFFF != 0xFFFFFFFF || p>>32 != 0xFFFFFFFF {
		t.Fatalf("DrainPayload must saturate: %x", p)
	}
	f := FreezePayload(42, 3)
	if f>>32 != 42 || f&0xFFFFFFFF != 3 {
		t.Fatalf("FreezePayload mispacked: %x", f)
	}
}

func TestEnabledToggle(t *testing.T) {
	if Enabled() {
		t.Fatalf("tracing must default off")
	}
	SetEnabled(true)
	if !Enabled() {
		t.Fatalf("SetEnabled(true) not visible")
	}
	SetEnabled(false)
}

func TestRecorderSizing(t *testing.T) {
	rec := NewRecorder(0, 0)
	if rec.Threads() != 1 || rec.Ring(0).Cap() != DefaultRingSize {
		t.Fatalf("defaults: threads=%d cap=%d", rec.Threads(), rec.Ring(0).Cap())
	}
	rec = NewRecorder(3, 100) // rounds up to 128
	if rec.Threads() != 3 || rec.Ring(2).Cap() != 128 {
		t.Fatalf("rounding: threads=%d cap=%d", rec.Threads(), rec.Ring(2).Cap())
	}
	if rec.Ring(1).TID() != 1 {
		t.Fatalf("tid mismatch")
	}
}

// TestRingWrapAround records more events than the ring holds and checks
// the snapshot is the newest cap−1 events (the oldest slot is always
// discarded once wrapped: a Record could be rewriting it unpublished),
// oldest first, with sequence numbers intact.
func TestRingWrapAround(t *testing.T) {
	rec := NewRecorder(1, 8)
	r := rec.Ring(0)
	const total = 8*3 + 5
	for i := 0; i < total; i++ {
		r.Record(EvPhase, uint64(i))
	}
	if r.Recorded() != total {
		t.Fatalf("Recorded=%d want %d", r.Recorded(), total)
	}
	evs := r.Snapshot(nil)
	if len(evs) != 7 {
		t.Fatalf("snapshot len=%d want 7", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(total - 7 + i)
		if e.Seq != wantSeq || e.Arg != wantSeq || e.Kind != EvPhase || e.TID != 0 {
			t.Fatalf("event %d = %+v, want seq/arg %d", i, e, wantSeq)
		}
		if i > 0 && e.TS < evs[i-1].TS {
			t.Fatalf("timestamps not monotone at %d", i)
		}
	}
}

// TestSnapshotWhileRecording hammers one ring from its owner while a
// reader snapshots continuously. Every snapshot must be a gap-free run of
// sequence numbers whose Arg matches Seq (we record arg=seq), proving no
// torn or stale slot ever escapes.
func TestSnapshotWhileRecording(t *testing.T) {
	rec := NewRecorder(1, 64)
	r := rec.Ring(0)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); !stop.Load(); i++ {
			r.Record(EvWarnCheck, i)
		}
	}()
	var buf []Event
	for snaps := 0; snaps < 2000; snaps++ {
		buf = r.Snapshot(buf[:0])
		for i, e := range buf {
			if e.Arg != e.Seq {
				t.Errorf("torn event: seq=%d arg=%d", e.Seq, e.Arg)
				stop.Store(true)
				wg.Wait()
				return
			}
			if i > 0 && e.Seq != buf[i-1].Seq+1 {
				t.Errorf("gap in snapshot: %d then %d", buf[i-1].Seq, e.Seq)
				stop.Store(true)
				wg.Wait()
				return
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestRecorderEventsMerge checks cross-ring merge ordering.
func TestRecorderEventsMerge(t *testing.T) {
	rec := NewRecorder(3, 16)
	for round := 0; round < 5; round++ {
		for tid := 0; tid < 3; tid++ {
			rec.Ring(tid).Record(EvDrain, DrainPayload(uint64(round), 0))
		}
	}
	if rec.Total() != 15 {
		t.Fatalf("Total=%d want 15", rec.Total())
	}
	evs := rec.Events()
	if len(evs) != 15 {
		t.Fatalf("Events len=%d want 15", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if b.TS < a.TS {
			t.Fatalf("merge not time-sorted at %d", i)
		}
		if b.TS == a.TS && (b.TID < a.TID || (b.TID == a.TID && b.Seq < a.Seq)) {
			t.Fatalf("merge tie-break wrong at %d", i)
		}
	}
}

// TestWriteChrome holds the export to the trace_event shape and checks
// every payload decoding in "args".
func TestWriteChrome(t *testing.T) {
	events := []Event{
		{TS: 1500, TID: 0, Seq: 0, Kind: EvPhase, Arg: 7},
		{TS: 123456789, TID: 3, Seq: 9, Kind: EvRestart, Arg: uint64(CauseRead)},
		{TS: 2000, TID: 1, Seq: 0, Kind: EvRefill, Arg: 1},
		{TS: 2500, TID: 1, Seq: 1, Kind: EvDrain, Arg: DrainPayload(11, 3)},
		{TS: 3000, TID: 2, Seq: 0, Kind: EvFreeze, Arg: FreezePayload(9, 2)},
		{TS: 3500, TID: 2, Seq: 1, Kind: EvSteal, Arg: 5},
		{TS: 4000, TID: 3, Seq: 0, Kind: EvReqStage, Arg: StagePayload(StageExec, 42)},
		{TS: 4500, TID: 3, Seq: 1, Kind: EvReqSpan, Arg: SpanPayload(2, 0, 3, 99)},
		{TS: 5000, TID: 4, Seq: 0, Kind: EvRestart, Arg: uint64(CauseWrite)},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			S    string         `json:"s"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			TS   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid chrome trace JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != len(events) {
		t.Fatalf("got %d events want %d", len(doc.TraceEvents), len(events))
	}
	e0 := doc.TraceEvents[0]
	if e0.Name != "phase" || e0.Ph != "i" || e0.S != "t" || e0.TS != 1.5 || e0.Args["phase"] != float64(7) {
		t.Fatalf("event 0 wrong: %+v", e0)
	}
	e1 := doc.TraceEvents[1]
	if e1.Name != "restart" || e1.Tid != 3 || e1.TS != 123456.789 ||
		e1.Args["cause"] != "read_barrier" {
		t.Fatalf("event 1 wrong: %+v", e1)
	}
	if doc.TraceEvents[2].TS != 2 {
		t.Fatalf("whole-µs timestamp must have no fraction: %+v", doc.TraceEvents[2])
	}
	for i, want := range []map[string]any{
		3: {"recycled": float64(11), "re_retired": float64(3)},
		4: {"phase": float64(9), "shard": float64(2)},
		5: {"shard": float64(5)},
		6: {"stage": "exec", "ns": float64(42)},
		7: {"op": float64(2), "status": float64(0), "shard": float64(3), "server_ns": float64(99)},
		8: {"cause": "write_barrier"},
	} {
		e := doc.TraceEvents[i]
		for k, v := range want {
			if e.Args[k] != v {
				t.Fatalf("event %d (%s) args[%q] = %v, want %v (args %v)", i, e.Name, k, e.Args[k], v, e.Args)
			}
		}
	}
	if doc.TraceEvents[6].Name != "req_stage" || doc.TraceEvents[7].Name != "req_span" || doc.TraceEvents[5].Tid != 2 {
		t.Fatalf("request events wrong: %+v %+v", doc.TraceEvents[6], doc.TraceEvents[7])
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty chrome doc invalid: %v", err)
	}
}

func BenchmarkRecord(b *testing.B) {
	rec := NewRecorder(1, DefaultRingSize)
	r := rec.Ring(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(EvWarnCheck, uint64(i))
	}
}

// TestRingAllocatesOnFirstRecord pins the lazy ring: a recorder sized
// for the server's thousand producer contexts costs only its headers
// until a context records, an untouched ring snapshots as empty, and a
// warm Record is allocation-free.
func TestRingAllocatesOnFirstRecord(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := NewRecorder(1026, 0)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("NewRecorder(1026, 0) allocated %d bytes before any event", grew)
	}
	if evs := rec.Events(); len(evs) != 0 || rec.Total() != 0 {
		t.Fatalf("untouched recorder exported %d events (total %d)", len(evs), rec.Total())
	}
	r := rec.Ring(1025)
	if got := r.Snapshot(nil); len(got) != 0 || r.Cap() != DefaultRingSize {
		t.Fatalf("untouched ring: %d events, cap %d", len(got), r.Cap())
	}
	r.Record(EvPhase, 7)
	if evs := rec.Events(); len(evs) != 1 || evs[0].Kind != EvPhase || evs[0].Arg != 7 || evs[0].TID != 1025 {
		t.Fatalf("first recorded event lost: %+v", evs)
	}
	if avg := testing.AllocsPerRun(2000, func() { r.Record(EvDrain, 1) }); avg != 0 {
		t.Fatalf("warm Record allocates %.2f objects/event", avg)
	}
}
