// Per-connection completion outbox. Executors complete requests
// concurrently with the reader (protocol ops, errors), in execution order,
// but responses must leave in request order. The outbox is a
// sequence-indexed reorder buffer: the reader assigns every request a
// dense sequence at decode time, any goroutine completes its slot later,
// and the writer releases only the contiguous prefix.
//
// A slot holds the encoded response itself — every data-op reply of both
// protocols fits slotInline bytes (binary frames ≤ 21, RESP +OK / :n /
// $-1 / a 7-byte bulk ≤ 13) — so a served request allocates nothing;
// only STATS, INFO and error strings take the heap escape. No lock sits
// on the request path: a slot belongs to its completer until the atomic
// store that publishes it, then to the writer until release; the mutex
// only parks a goroutine that found nothing to do (DESIGN.md §7).
//
// The slot carries the request first: the reader stages it there and
// owns the slot until the enqueue, the executor reads it out and the
// codec encodes over it. The window is the staging buffer.
//
// The buffer doubles as the in-flight window: the reader blocks while
// window responses are unwritten, so every live sequence has a reserved
// slot, complete never blocks, and one slow connection cannot stall an
// executor.
package server

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

const slotInline = 32

// obSlot is one cache line: the publish word, the inline bytes and the
// heap escape for responses past slotInline.
type obSlot struct {
	n    atomic.Uint32    // 0 = not completed, else response length + 1
	data [slotInline]byte // staged request id|key|arg1|arg2, then the response
	op   uint8            // staged request's opcode, in the padding before big
	join bool             // staged request is one key of a variadic command; its id word is the command's tail sequence
	big  []byte
}

// stage parks data command cmd in the slot until its executor picks it up.
func (sl *obSlot) stage(cmd command, join bool) {
	sl.op, sl.join = cmd.op, join
	le := binary.LittleEndian
	le.PutUint64(sl.data[0:], cmd.id)
	le.PutUint64(sl.data[8:], cmd.key)
	le.PutUint64(sl.data[16:], cmd.a1)
	le.PutUint64(sl.data[24:], cmd.a2)
}

// staged returns the command stage parked.
func (sl *obSlot) staged() (op uint8, id, key, a1, a2 uint64) {
	le := binary.LittleEndian
	return sl.op, le.Uint64(sl.data[0:]), le.Uint64(sl.data[8:]), le.Uint64(sl.data[16:]), le.Uint64(sl.data[24:])
}

type outbox struct {
	slots []obSlot
	mask  uint64
	limit uint64        // window: max live sequences (seq - next)
	seq   uint64        // next sequence to assign; reader-private
	next  atomic.Uint64 // next sequence the writer releases

	goaway atomic.Bool // pending GOAWAY push (binary protocol)
	closed atomic.Bool

	mu     sync.Mutex
	cond   sync.Cond    // parked: the writer (nothing releasable) or the reader (window full)
	parked atomic.Int32 // goroutines in or entering cond.Wait
}

func (ob *outbox) init(window int) {
	n := 1
	for n < window {
		n <<= 1
	}
	ob.slots = make([]obSlot, n)
	ob.mask = uint64(n - 1)
	ob.limit = uint64(window)
	ob.cond.L = &ob.mu
}

// park blocks until ready() holds. The waiter advertises itself before
// its last look at the condition and every state change is followed by
// wake's look at parked, so one of the two always sees the other.
func (ob *outbox) park(ready func() bool) {
	ob.mu.Lock()
	ob.parked.Add(1)
	for !ready() {
		ob.cond.Wait()
	}
	ob.parked.Add(-1)
	ob.mu.Unlock()
}

// wake must follow every store that can make a parked goroutine's
// condition true.
func (ob *outbox) wake() {
	if ob.parked.Load() != 0 {
		ob.mu.Lock()
		ob.cond.Broadcast()
		ob.mu.Unlock()
	}
}

// full reports whether alloc would exceed the window. Reader-only.
func (ob *outbox) full() bool { return ob.seq-ob.next.Load() >= ob.limit }

// alloc assigns the next response sequence. Only the connection's reader
// calls it, once full() says no: sequences are dense and in request order.
func (ob *outbox) alloc() uint64 {
	ob.seq++
	return ob.seq - 1
}

// slot returns sequence seq's slot.
func (ob *outbox) slot(seq uint64) *obSlot { return &ob.slots[seq&ob.mask] }

// complete publishes sequence seq's response: what the completer
// appended to the slot's buffer, or the heap slice that outgrew. It
// never blocks and leaves waking the writer to the caller, once per run
// of completions. Safe from any goroutine.
func (ob *outbox) complete(seq uint64, resp []byte) {
	sl := ob.slot(seq)
	if len(resp) <= slotInline {
		copy(sl.data[:], resp) // a no-op move when resp is the slot itself
	} else {
		sl.big = resp
	}
	sl.n.Store(uint32(len(resp)) + 1)
}

// ready reports whether the writer has something releasable — its wake
// condition, and the inverse of the flush-on-empty trigger.
func (ob *outbox) ready() bool {
	return ob.slots[ob.next.Load()&ob.mask].n.Load() != 0 || ob.goaway.Load()
}

// take blocks until something is releasable and returns it: a pending
// GOAWAY push (alone, so the writer can flush it promptly), else the
// contiguous run [lo, hi) of completed responses — read with bytes,
// handed back with release — else closed, reported only once nothing
// else is pending, so no completion is ever lost.
func (ob *outbox) take() (lo, hi uint64, goaway, closed bool) {
	lo = ob.next.Load()
	for {
		if ob.goaway.Load() {
			ob.goaway.Store(false)
			return lo, lo, true, false
		}
		closed = ob.closed.Load() // before the scan: close follows the last completion
		for hi = lo; hi-lo < ob.limit && ob.slots[hi&ob.mask].n.Load() != 0; hi++ {
		}
		if hi != lo || closed {
			return lo, hi, false, closed && hi == lo
		}
		ob.park(func() bool { return ob.ready() || ob.closed.Load() })
	}
}

// bytes returns the published response of sequence seq.
func (ob *outbox) bytes(seq uint64) []byte {
	sl := ob.slot(seq)
	if n := sl.n.Load() - 1; n <= slotInline {
		return sl.data[:n]
	}
	return sl.big
}

// release returns the slots of [lo, hi) to the reader's window.
func (ob *outbox) release(lo, hi uint64) {
	for s := lo; s != hi; s++ {
		sl := ob.slot(s)
		sl.big = nil
		sl.n.Store(0)
	}
	ob.next.Store(hi)
	ob.wake()
}

// pushGoAway schedules an out-of-band GOAWAY push.
func (ob *outbox) pushGoAway() {
	ob.goaway.Store(true)
	ob.wake()
}

// close ends the stream: take drains what remains, then reports closed.
func (ob *outbox) close() {
	ob.closed.Store(true)
	ob.wake()
}
