package core

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/trace"
)

// countKinds tallies the recorder's merged events by kind.
func countKinds(rec *trace.Recorder) map[trace.Kind]int {
	got := map[trace.Kind]int{}
	for _, e := range rec.Events() {
		got[e.Kind]++
	}
	return got
}

// TestTraceRecordsProtocolEvents drives the full OA pipeline with tracing
// enabled and checks every event kind the scheme emits shows up: phase
// transitions, warning broadcast, one retire-pool freeze per phase with
// the phase in its payload, a drain pass with the recycled count in its
// payload, refills, and a restart attributed to the read barrier.
func TestTraceRecordsProtocolEvents(t *testing.T) {
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)

	m := newMgr(t, Config{MaxThreads: 1, Capacity: 64, LocalPool: 8, OwnerHPs: 3})
	th := m.Thread(0)

	// Churn enough slots through retire → recycle that several phases run.
	for i := 0; i < 4*m.Capacity(); i++ {
		th.Retire(th.Alloc())
	}
	th.FlushRetired()
	m.Quiesce()

	// Force one warning-triggered restart through the read barrier.
	m.InjectWarnings(9999)
	if !th.Check() {
		t.Fatal("injected warning did not restart")
	}

	rec := m.TraceRecorder()
	if rec.Total() == 0 {
		t.Fatal("no events recorded with tracing enabled")
	}
	got := countKinds(rec)
	for _, k := range []trace.Kind{
		trace.EvPhase, trace.EvWarnSet, trace.EvFreeze, trace.EvDrain,
		trace.EvRefill, trace.EvWarnCheck, trace.EvWarnAck, trace.EvRestart,
	} {
		if got[k] == 0 {
			t.Errorf("no %v events recorded (got %v)", k, got)
		}
	}

	// The only thread started every swap: one freeze per phase, in order.
	var recycled, freezes uint64
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.EvDrain:
			recycled += e.Arg & 0xFFFFFFFF
		case trace.EvFreeze:
			if e.Arg != 2*freezes {
				t.Fatalf("freeze %d carries phase %d, want %d", freezes, e.Arg, 2*freezes)
			}
			freezes++
		}
	}
	if 2*freezes != m.Phase() {
		t.Fatalf("%d freeze events for phase %d", freezes, m.Phase())
	}
	// The drain payloads must account for recycled slots.
	if recycled == 0 {
		t.Fatal("drain events carry no recycled counts")
	}
	// The restart we forced must name the read barrier.
	var readRestarts int
	for _, e := range rec.Events() {
		if e.Kind == trace.EvRestart && trace.Cause(e.Arg) == trace.CauseRead {
			readRestarts++
		}
	}
	if readRestarts == 0 {
		t.Fatal("restart event missing read_barrier cause")
	}
}

// TestTraceDisabledRecordsNothing is the gating check: with the flag off,
// the same pipeline traffic must leave every ring untouched.
func TestTraceDisabledRecordsNothing(t *testing.T) {
	if trace.Enabled() {
		t.Fatal("tracing unexpectedly on")
	}
	m := newMgr(t, Config{MaxThreads: 1, Capacity: 64, LocalPool: 8, OwnerHPs: 3})
	th := m.Thread(0)
	for i := 0; i < 2*m.Capacity(); i++ {
		th.Retire(th.Alloc())
	}
	th.FlushRetired()
	m.Quiesce()
	if n := m.TraceRecorder().Total(); n != 0 {
		t.Fatalf("recorded %d events with tracing disabled", n)
	}
}

// TestTraceRestartCauses checks the write-barrier and seal-barrier checks
// attribute their restarts distinctly.
func TestTraceRestartCauses(t *testing.T) {
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)

	m := newMgr(t, Config{MaxThreads: 1, Capacity: 64, OwnerHPs: 3})
	th := m.Thread(0)

	m.InjectWarnings(1001)
	if !th.ProtectCAS(arena.NilPtr, arena.NilPtr, arena.NilPtr) {
		t.Fatal("ProtectCAS ignored warning")
	}
	m.InjectWarnings(1002)
	if !th.SealGenerator() {
		t.Fatal("SealGenerator ignored warning")
	}

	want := map[trace.Cause]bool{trace.CauseWrite: false, trace.CauseSeal: false}
	for _, e := range m.TraceRecorder().Events() {
		if e.Kind == trace.EvRestart {
			want[trace.Cause(e.Arg)] = true
		}
	}
	if !want[trace.CauseWrite] || !want[trace.CauseSeal] {
		t.Fatalf("missing restart causes: %v", want)
	}
}
