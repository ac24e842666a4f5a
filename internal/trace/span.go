// Request spans: the per-request timeline the server threads through its
// pipeline (ingress read → shard route → lease acquire → data-structure
// op → response queue). A Span is a tiny stack/struct-resident stopwatch
// — marking a stage is one monotonic clock read and one add, so the
// instrumented request path stays allocation-free — and Emit flushes a
// sampled span into a thread's event ring as req_stage/req_span events,
// where it lands on the same timeline as the reclamation events
// (restarts, drains, phase transitions) that explain its exec stage.
package trace

// Stage identifies one segment of a server request span.
type Stage uint8

const (
	// StageRead is socket wait plus frame decode. For an idle connection
	// it is dominated by client think time, so it is excluded from the
	// span's server-side total; for a saturated pipeline it measures
	// ingress pressure.
	StageRead Stage = iota
	// StageRoute is key hashing and shard selection.
	StageRoute
	// StageLease is session acquisition on the routed shard. The server's
	// executors hold their sessions for life, so its spans leave it zero.
	StageLease
	// StageExec is the data-structure operation itself, including any
	// scheme-forced restarts and drain work it absorbed.
	StageExec
	// StageQueue is the hand-off of the encoded response to the writer —
	// the wait on the bounded in-flight window. Actual socket flush is
	// batched across requests by the writer and not individually
	// attributable; the queue wait is exactly the backpressure that
	// batching lag creates.
	StageQueue

	// NumStages sizes per-span stage arrays.
	NumStages
)

var stageNames = [NumStages]string{"read", "route", "lease", "exec", "queue"}

// String returns the snake_case export name of the stage.
func (st Stage) String() string {
	if st >= NumStages {
		return "unknown"
	}
	return stageNames[st]
}

// Span accumulates one request's per-stage durations. The zero value is
// ready after Begin; a Span is owned by one goroutine (the connection's
// reader) and reused across requests.
type Span struct {
	mark int64
	dur  [NumStages]int64
}

// Begin resets the span and starts the clock.
func (sp *Span) Begin() {
	sp.mark = Now()
	for i := range sp.dur {
		sp.dur[i] = 0
	}
}

// Mark attributes the time since the previous mark (or Begin) to stage
// st and restarts the clock. Marking the same stage twice accumulates —
// a variadic RESP command's repeated route/lease/exec legs merge into
// one span.
func (sp *Span) Mark(st Stage) {
	now := Now()
	sp.dur[st] += now - sp.mark
	sp.mark = now
}

// Dur returns the accumulated duration of one stage in nanoseconds.
func (sp *Span) Dur(st Stage) int64 { return sp.dur[st] }

// Durations returns the per-stage durations, indexed by Stage.
func (sp *Span) Durations() [NumStages]int64 { return sp.dur }

// ServerNs is the span's server-side total: every stage except
// StageRead, whose socket wait belongs to the client.
func (sp *Span) ServerNs() int64 {
	var t int64
	for st := StageRoute; st < NumStages; st++ {
		t += sp.dur[st]
	}
	return t
}

// Emit records the span into ring r: one req_stage event per non-empty
// stage, then the req_span summary. Wait-free and allocation-free (it is
// a handful of Ring.Record calls); the caller owns r's single-writer
// discipline — the server emits while it holds the routed shard's
// session, whose ring nothing else is writing.
func (sp *Span) Emit(r *Ring, op, status uint8, shard int) {
	for st := Stage(0); st < NumStages; st++ {
		if d := sp.dur[st]; d > 0 {
			r.Record(EvReqStage, StagePayload(st, d))
		}
	}
	r.Record(EvReqSpan, SpanPayload(op, status, shard, sp.ServerNs()))
}

// Span payload layout: op in bits 63..60, status in 59..52, shard in
// 51..42, server-side ns saturated into the low 42 bits (~1.2 hours).
const spanNsMask = 1<<42 - 1

// SpanPayload packs a req_span summary payload.
func SpanPayload(op, status uint8, shard int, ns int64) uint64 {
	if ns < 0 {
		ns = 0
	}
	if ns > spanNsMask {
		ns = spanNsMask
	}
	return uint64(op&0xF)<<60 | uint64(status)<<52 | uint64(shard&0x3FF)<<42 | uint64(ns)
}

// SpanOp unpacks the opcode of a req_span payload.
func SpanOp(p uint64) uint8 { return uint8(p >> 60) }

// SpanStatus unpacks the status of a req_span payload.
func SpanStatus(p uint64) uint8 { return uint8(p >> 52 & 0xFF) }

// SpanShard unpacks the shard of a req_span payload.
func SpanShard(p uint64) int { return int(p >> 42 & 0x3FF) }

// SpanNs unpacks the server-side duration of a req_span payload.
func SpanNs(p uint64) int64 { return int64(p & spanNsMask) }

// Stage payload layout: stage id in the top 4 bits, ns saturated into
// the low 60.
const stageNsMask = 1<<60 - 1

// StagePayload packs a req_stage payload.
func StagePayload(st Stage, ns int64) uint64 {
	if ns < 0 {
		ns = 0
	}
	if ns > stageNsMask {
		ns = stageNsMask
	}
	return uint64(st)<<60 | uint64(ns)
}

// StageOf unpacks the stage of a req_stage payload.
func StageOf(p uint64) Stage { return Stage(p >> 60) }

// StageNs unpacks the duration of a req_stage payload.
func StageNs(p uint64) int64 { return int64(p & stageNsMask) }
