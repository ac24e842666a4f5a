// Package trace is the reclamation event recorder: a lock-free,
// per-thread fixed-size ring of small protocol events (phase transitions,
// warning traffic, restarts with their cause, drain passes, shard
// freezes/steals, allocation-pool refills) timestamped on a monotonic
// clock. Counters (package obs) answer "how many restarts"; the trace
// answers "which phase transition caused this p999 spike" — the timeline
// view RCU/epoch practice calls event tracing.
//
// Design constraints, in order:
//
//  1. Recording must be wait-free and allocation-free: each event is a
//     few uncontended atomic stores into a ring owned by the recording
//     thread, followed by one release-store of the head. No CAS, no
//     locks, no heap traffic (zeroalloc_test.go keeps this honest).
//  2. Disabled cost is one predictable branch: every instrumentation
//     site is gated on the global Enabled flag, mirroring obs.Enabled.
//  3. Export never stops writers: a snapshot copies the ring while the
//     owner keeps recording and discards the prefix that may have been
//     overwritten mid-copy (see Ring.Snapshot), so readers get a
//     consistent suffix of the event history, never a torn event.
package trace

import (
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Kind identifies one protocol event type.
type Kind uint8

// The protocol events the schemes record. OA produces all of them; the
// baseline schemes map their analogous sites onto the shared kinds
// (HP/anchors scans and EBR reclaim passes record EvDrain, epoch/era
// advances record EvPhase, validation failures record EvRestart).
const (
	// EvPhase is a reclamation phase transition: the recording thread's
	// local phase advanced (OA), the global epoch advanced (EBR) or the
	// era moved (anchors). Payload: the new phase/epoch value.
	EvPhase Kind = iota + 1
	// EvWarnSet is the recycler's warning broadcast before recycling
	// anything (Algorithm 6 line 12). Payload: the announced phase.
	EvWarnSet
	// EvWarnCheck is a read barrier (Algorithm 1) observing the warning
	// bit set. Payload: the phase stamped in the warning word.
	EvWarnCheck
	// EvWarnAck is the thread clearing its warning bit, acknowledging
	// the phase. Payload: the acknowledged phase.
	EvWarnAck
	// EvRestart is an operation restart forced by the scheme. Payload:
	// a Cause value.
	EvRestart
	// EvDrain is one drain/scan/reclaim pass over retired slots.
	// Payload: recycled count in the low 32 bits, re-retired (still
	// protected) count in the high 32 bits — see DrainPayload.
	EvDrain
	// EvFreeze is one retire-pool shard frozen by this thread during a
	// phase swap (the odd-version CAS of Algorithm 6 / §4). Payload:
	// phase in the high 32 bits, shard index in the low 32.
	EvFreeze
	// EvSteal is a block pop served by a shard other than the popping
	// thread's home. Payload: the shard the block came from.
	EvSteal
	// EvRefill is a local allocation-block refill from the shared pool.
	// Payload: the shard the block came from (0 for unsharded pools).
	EvRefill
	// EvLease is a thread context leased to a dynamic worker (a server
	// connection binding itself to the fixed registry). Payload: an
	// owner id chosen by the leasing layer (the server's connection id).
	EvLease
	// EvUnlease is the matching context release back to the free pool.
	// Payload: the same owner id.
	EvUnlease
	// EvReqSpan summarizes one sampled server request: its executor
	// records it, in its session ring of the request's shard, before the
	// response is handed to the writer.
	// Payload: SpanPayload (opcode, status, shard, server-side ns).
	EvReqSpan
	// EvReqStage is one pipeline stage of a sampled request span (read,
	// route, lease, exec, queue), emitted just before its EvReqSpan.
	// Payload: StagePayload (stage id, stage ns).
	EvReqStage
	// EvRingEnq is a sampled enqueue of a burst's node onto an executor's
	// bounded MPMC ring, recorded in the producer session's ring.
	// Payload: RingPayload (the executor's ring index, ring depth in
	// requests, the node's own included).
	EvRingEnq
	// EvRingDeq is a sampled request's dequeue by its executor, recorded
	// in the executor's consumer session ring. Payload: RingPayload (ring
	// index, ring wait in nanoseconds).
	EvRingDeq
	// EvBatch is one executor drain batch: the executor found its ring
	// non-empty and ran requests back-to-back on its long-lived sessions.
	// Payload: RingPayload (ring index, batch size).
	EvBatch
	// EvHealth is a health-engine state transition: the flight
	// recorder's rule evaluation moved the process between ok, degraded
	// and critical. Payload: HealthPayload (old state, new state, firing
	// rule bitmask) — see internal/flight.
	EvHealth

	numKinds
)

var kindNames = [numKinds]string{
	"", "phase", "warn_set", "warn_check", "warn_ack",
	"restart", "drain", "shard_freeze", "shard_steal", "refill",
	"lease", "unlease", "req_span", "req_stage",
	"ring_enq", "ring_deq", "exec_batch", "health",
}

// HealthPayload packs a health-state transition into one event payload:
// the previous and new state in the low two bytes and a bitmask of
// firing rule indices in the high 32 bits.
func HealthPayload(old, new uint8, firing uint32) uint64 {
	return uint64(firing)<<32 | uint64(new)<<8 | uint64(old)
}

// UnpackHealth reverses HealthPayload.
func UnpackHealth(p uint64) (old, new uint8, firing uint32) {
	return uint8(p), uint8(p >> 8), uint32(p >> 32)
}

// String returns the snake_case export name of the kind.
func (k Kind) String() string {
	if k == 0 || k >= numKinds {
		return "unknown"
	}
	return kindNames[k]
}

// Cause is the payload of an EvRestart event: why the scheme forced the
// enclosing operation to start over.
type Cause uint64

const (
	// CauseRead: an OA read barrier (Algorithm 1) caught a warning after
	// an optimistic read.
	CauseRead Cause = iota + 1
	// CauseWrite: the pre-CAS barrier (Algorithm 2, ProtectCAS) caught a
	// warning before an observable write.
	CauseWrite
	// CauseSeal: the end-of-generator barrier (Algorithm 3,
	// SealGenerator) caught a warning after installing owner HPs.
	CauseSeal
	// CauseValidate: a hazard-pointer validation failed (HP scheme).
	CauseValidate
	// CauseAnchor: an anchor validation failed (anchors recovery).
	CauseAnchor

	numCauses
)

var causeNames = [numCauses]string{
	"", "read_barrier", "write_barrier", "seal_barrier", "hp_validate", "anchor_recovery",
}

// String returns the snake_case export name of the cause.
func (c Cause) String() string {
	if c == 0 || c >= numCauses {
		return "unknown"
	}
	return causeNames[c]
}

// DrainPayload packs a drain pass's recycled and re-retired counts into
// one payload word (each saturated to 32 bits).
func DrainPayload(recycled, reRetired uint64) uint64 {
	if recycled > 0xFFFFFFFF {
		recycled = 0xFFFFFFFF
	}
	if reRetired > 0xFFFFFFFF {
		reRetired = 0xFFFFFFFF
	}
	return reRetired<<32 | recycled
}

// FreezePayload packs a shard freeze's phase and shard index.
func FreezePayload(phase uint32, shard int) uint64 {
	return uint64(phase)<<32 | uint64(uint32(shard))
}

// RingPayload packs a ring event's ring index (high 32 bits) with its
// 32-bit metric — depth for ring_enq, wait ns for ring_deq, batch size
// for exec_batch — saturated into the low bits.
func RingPayload(ring int, v uint64) uint64 {
	if v > 0xFFFFFFFF {
		v = 0xFFFFFFFF
	}
	return uint64(uint32(ring))<<32 | v
}

// RingIndex unpacks the ring index of a ring event payload.
func RingIndex(p uint64) int { return int(uint32(p >> 32)) }

// RingValue unpacks the metric of a ring event payload.
func RingValue(p uint64) uint64 { return p & 0xFFFFFFFF }

// enabled gates every recording site, exactly like obs.Enabled: one
// atomic load (a plain MOV on x86) per site when off.
var enabled atomic.Bool

// Enabled reports whether events are being recorded.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns event recording on or off. Toggling mid-run only
// affects which events land in the rings, never safety.
func SetEnabled(v bool) { enabled.Store(v) }

// epoch anchors the trace clock: timestamps are monotonic nanoseconds
// since process start (time.Since reads the monotonic clock and does not
// allocate). One process-wide epoch keeps every ring's timestamps
// directly comparable, which is what lets exporters merge-sort them.
var epoch = time.Now()

// Now returns the current trace timestamp.
func Now() int64 { return int64(time.Since(epoch)) }

// Event is one exported trace event.
type Event struct {
	// TS is the event's monotonic timestamp (nanoseconds since process
	// start).
	TS int64
	// Arg is the event's single payload word (see the Kind docs).
	Arg uint64
	// Seq is the event's position in its thread's recording order.
	Seq uint64
	// TID is the recording thread context id.
	TID int32
	// Kind is the event type.
	Kind Kind
}

// slot is the in-ring representation. Fields are atomics so a concurrent
// snapshot never data-races with the owner's stores; slots that may have
// been rewritten mid-copy are discarded by index (Snapshot), so exported
// events are never assembled from two different writes.
type slot struct {
	ts   atomic.Int64
	arg  atomic.Uint64
	kind atomic.Uint64
}

// Ring is one thread's fixed-size event ring. Record may only be called
// by the owning thread; Snapshot may run concurrently from any
// goroutine.
type Ring struct {
	// slots is allocated by the owner's first Record, not by NewRecorder:
	// a manager sized for a thousand contexts would otherwise pin
	// 24 KiB per context that never records (25 MB of live heap for the
	// server's ring group with tracing off).
	slots atomic.Pointer[[]slot]
	mask  uint64
	tid   int32
	// head is the next write index (monotonic, not wrapped): the ring
	// holds events [head-len, head). The owner publishes it after the
	// slot stores; Go atomics give the store release semantics, so a
	// reader that observes head >= i observes event i's fields.
	head atomic.Uint64
	_    [32]byte // pad: keep adjacent rings' heads off one cache line
}

// TID returns the owning thread context id.
func (r *Ring) TID() int { return int(r.tid) }

// Cap returns the ring capacity in events.
func (r *Ring) Cap() int { return int(r.mask + 1) }

// Recorded returns how many events were ever recorded (including ones
// the ring has since overwritten).
func (r *Ring) Recorded() uint64 { return r.head.Load() }

// Record appends one event with the current timestamp. Wait-free: three
// uncontended atomic stores plus the head publish, and no allocation
// after the first call, which allocates the ring. Only the owning thread
// may call it.
func (r *Ring) Record(k Kind, arg uint64) {
	slots := r.slots.Load()
	if slots == nil {
		buf := make([]slot, r.mask+1)
		slots = &buf
		r.slots.Store(slots) // single writer: no competing allocation
	}
	h := r.head.Load() // single writer: uncontended
	s := &(*slots)[h&r.mask]
	s.ts.Store(Now())
	s.arg.Store(arg)
	s.kind.Store(uint64(k))
	r.head.Store(h + 1)
}

// Snapshot appends the ring's current contents to dst (oldest first) and
// returns the result. It never blocks the writer: the ring indices are
// copied optimistically, then the head is re-read and every event whose
// slot the writer may have started rewriting during the copy — indices
// at or below head₁−cap, where head₁ is the post-copy head — is
// discarded. What remains is a gap-free, torn-free suffix of the
// thread's event history. Because a Record can be mid-rewrite of the
// oldest slot without having published, a wrapped ring yields at most
// cap−1 events even when the writer is quiescent.
func (r *Ring) Snapshot(dst []Event) []Event {
	slots := r.slots.Load()
	if slots == nil {
		return dst // nothing recorded yet
	}
	size := r.mask + 1
	h0 := r.head.Load()
	lo := uint64(0)
	if h0 > size {
		lo = h0 - size
	}
	first := len(dst)
	for i := lo; i < h0; i++ {
		s := &(*slots)[i&r.mask]
		dst = append(dst, Event{
			TS:   s.ts.Load(),
			Arg:  s.arg.Load(),
			Seq:  i,
			TID:  r.tid,
			Kind: Kind(s.kind.Load()),
		})
	}
	h1 := r.head.Load()
	if h1 >= size {
		// A writer mid-Record at index h≥head₁ may be rewriting the slot
		// of old index h−size without having published h+1 yet, so the
		// oldest index guaranteed stable is head₁−size+1.
		if safeLo := h1 - size + 1; safeLo > lo {
			if drop := int(safeLo - lo); drop >= len(dst)-first {
				// The writer lapped the whole copy; nothing is stable.
				dst = dst[:first]
			} else {
				n := copy(dst[first:], dst[first+drop:])
				dst = dst[:first+n]
			}
		}
	}
	return dst
}

// Recorder owns one ring per thread context.
type Recorder struct {
	rings []Ring
}

// DefaultRingSize is the per-thread ring capacity used when a size of 0
// is requested: 1024 events × 24 bytes = 24 KiB per thread, enough for
// several full reclamation phases of context around any spike.
const DefaultRingSize = 1024

// NewRecorder builds rings for n threads, each holding size events
// (rounded up to a power of two; 0 means DefaultRingSize) once its
// owner records the first one.
func NewRecorder(n, size int) *Recorder {
	if n < 1 {
		n = 1
	}
	if size <= 0 {
		size = DefaultRingSize
	}
	if size&(size-1) != 0 {
		size = 1 << bits.Len(uint(size))
	}
	rec := &Recorder{rings: make([]Ring, n)}
	for i := range rec.rings {
		rec.rings[i].mask = uint64(size - 1)
		rec.rings[i].tid = int32(i)
	}
	return rec
}

// Threads returns the number of rings.
func (rec *Recorder) Threads() int { return len(rec.rings) }

// Ring returns thread tid's ring.
func (rec *Recorder) Ring(tid int) *Ring { return &rec.rings[tid] }

// Total returns how many events were ever recorded across all rings.
func (rec *Recorder) Total() uint64 {
	var n uint64
	for i := range rec.rings {
		n += rec.rings[i].head.Load()
	}
	return n
}

// Events snapshots every ring and returns the merged events sorted by
// timestamp (ties broken by thread id, then sequence). Safe to call
// while threads record.
func (rec *Recorder) Events() []Event {
	var out []Event
	for i := range rec.rings {
		out = rec.rings[i].Snapshot(out)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Seq < b.Seq
	})
	return out
}
