// Request spans: the per-request timeline the server threads through its
// pipeline (ingress read → shard route → lease acquire → data-structure
// op → response queue). The server's executors time the stages and record
// a sampled request into their session's event ring as req_stage events
// plus one req_span summary, where it lands on the same timeline as the
// reclamation events (restarts, drains, phase transitions) that explain
// its exec stage. This file names the stages and packs those payloads.
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
