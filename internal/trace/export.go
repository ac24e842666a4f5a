package trace

import (
	"bufio"
	"io"
	"strconv"
)

// The exporter operates on the merged []Event from Recorder.Events (or
// any slice assembled by hand in tests) and writes with stdlib only: the
// Chrome trace_event JSON array loadable in chrome://tracing and
// Perfetto. Every event becomes an instant event ("ph":"i", thread scope)
// on the recording thread's track, with the decoded payload in "args" so
// the UI shows cause/phase/shard at a click.

// appendArgs decodes an event's payload word into JSON object fields
// (without braces).
func appendArgs(b []byte, e Event) []byte {
	switch e.Kind {
	case EvRestart:
		b = append(b, `"cause":"`...)
		b = append(b, Cause(e.Arg).String()...)
		b = append(b, '"')
	case EvDrain:
		b = append(b, `"recycled":`...)
		b = strconv.AppendUint(b, e.Arg&0xFFFFFFFF, 10)
		b = append(b, `,"re_retired":`...)
		b = strconv.AppendUint(b, e.Arg>>32, 10)
	case EvFreeze:
		b = append(b, `"phase":`...)
		b = strconv.AppendUint(b, e.Arg>>32, 10)
		b = append(b, `,"shard":`...)
		b = strconv.AppendUint(b, e.Arg&0xFFFFFFFF, 10)
	case EvPhase, EvWarnSet, EvWarnCheck, EvWarnAck:
		b = append(b, `"phase":`...)
		b = strconv.AppendUint(b, e.Arg, 10)
	case EvSteal, EvRefill:
		b = append(b, `"shard":`...)
		b = strconv.AppendUint(b, e.Arg, 10)
	case EvLease, EvUnlease:
		b = append(b, `"owner":`...)
		b = strconv.AppendUint(b, e.Arg, 10)
	case EvReqSpan:
		b = append(b, `"op":`...)
		b = strconv.AppendUint(b, uint64(SpanOp(e.Arg)), 10)
		b = append(b, `,"status":`...)
		b = strconv.AppendUint(b, uint64(SpanStatus(e.Arg)), 10)
		b = append(b, `,"shard":`...)
		b = strconv.AppendInt(b, int64(SpanShard(e.Arg)), 10)
		b = append(b, `,"server_ns":`...)
		b = strconv.AppendInt(b, SpanNs(e.Arg), 10)
	case EvReqStage:
		b = append(b, `"stage":"`...)
		b = append(b, StageOf(e.Arg).String()...)
		b = append(b, `","ns":`...)
		b = strconv.AppendInt(b, StageNs(e.Arg), 10)
	default:
		b = append(b, `"arg":`...)
		b = strconv.AppendUint(b, e.Arg, 10)
	}
	return b
}

// WriteChrome writes the events as a Chrome trace_event JSON document
// ({"traceEvents":[...]}) loadable in chrome://tracing and Perfetto.
// Each event is a thread-scoped instant event on track (pid 1, tid =
// thread context id); timestamps are the trace clock converted to
// microseconds with sub-µs precision preserved as a decimal fraction.
func WriteChrome(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	var b []byte
	for i, e := range events {
		b = b[:0]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n"+`{"name":"`...)
		b = append(b, e.Kind.String()...)
		b = append(b, `","ph":"i","s":"t","pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(e.TID), 10)
		b = append(b, `,"ts":`...)
		b = appendMicros(b, e.TS)
		b = append(b, `,"args":{`...)
		b = appendArgs(b, e)
		b = append(b, `}}`...)
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// appendMicros formats ns nanoseconds as decimal microseconds ("12.345")
// without going through float64, keeping exact nanosecond precision.
func appendMicros(b []byte, ns int64) []byte {
	if ns < 0 {
		// Cannot happen with the monotonic trace clock; clamp defensively
		// rather than emit JSON Chrome refuses.
		ns = 0
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	if frac := ns % 1000; frac != 0 {
		b = append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	}
	return b
}
