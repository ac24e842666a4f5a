package trace

import "testing"

func TestSpanPayloadPacking(t *testing.T) {
	p := SpanPayload(4, 8, 1023, 123456789)
	if SpanOp(p) != 4 || SpanStatus(p) != 8 || SpanShard(p) != 1023 || SpanNs(p) != 123456789 {
		t.Fatalf("span payload roundtrip: op=%d status=%d shard=%d ns=%d",
			SpanOp(p), SpanStatus(p), SpanShard(p), SpanNs(p))
	}
	// Saturation, not wraparound, on oversized and negative durations.
	if SpanNs(SpanPayload(1, 0, 0, 1<<62)) != spanNsMask {
		t.Fatal("span ns did not saturate")
	}
	if SpanNs(SpanPayload(1, 0, 0, -5)) != 0 {
		t.Fatal("negative span ns did not clamp to zero")
	}
	q := StagePayload(StageExec, 42)
	if StageOf(q) != StageExec || StageNs(q) != 42 {
		t.Fatalf("stage payload roundtrip: stage=%v ns=%d", StageOf(q), StageNs(q))
	}
	if StageNs(StagePayload(StageRead, -1)) != 0 {
		t.Fatal("negative stage ns did not clamp to zero")
	}
}

func TestStageNames(t *testing.T) {
	want := []string{"read", "route", "lease", "exec", "queue"}
	for st := Stage(0); st < NumStages; st++ {
		if st.String() != want[st] {
			t.Fatalf("stage %d name %q, want %q", st, st.String(), want[st])
		}
	}
	if Stage(200).String() != "unknown" {
		t.Fatal("out-of-range stage must render unknown")
	}
	if EvReqSpan.String() != "req_span" || EvReqStage.String() != "req_stage" {
		t.Fatalf("kind names: %q %q", EvReqSpan.String(), EvReqStage.String())
	}
}
