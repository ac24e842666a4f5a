// Per-shard batched execution. In batched mode (the default) a reader
// goroutine only parses and routes, one pipeline burst — what one
// read(2) delivered — at a time: each data request is staged in the
// outbox slot its response will occupy, then the burst is handed off
// with one timestamp, one ledger update, and one ring node and one wake
// per shard touched. One executor goroutine per shard holds the shard's
// only long-lived kvmap lease and drains its ring in batches, so lease
// acquisition, warning-check placement and map cache misses amortize
// across every connection hitting the shard — and the session economy
// shrinks from conns×shards leases to exactly one per shard.
//
// The rings are the OA-native bounded MPMC queues of internal/mpmc: the
// server's hot path runs through the reclamation scheme it serves, once
// per (burst, shard) rather than once per request. Backpressure inverts
// the old model: instead of per-(conn,shard) BUSY at lease time, a shard
// with RingSize requests queued makes the producer wait up to RingWait
// for the executor to catch up, then answer BUSY. Executors encode each
// response over its request in the connection's outbox slots, which
// restore wire order.
package server

import (
	"errors"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/kvmap"
	"repro/internal/lease"
	"repro/internal/mpmc"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Ring node layout — one node per (burst, shard), six of the
// mpmc.PayloadWords = 8 words used:
//
//	w0  conn slot
//	w1  base: the outbox sequence of mask bit 0 on that connection
//	w2  mask: bit i set = the request staged in slot base+i is this node's
//	w3  hand-off timestamp of the burst (trace.Now), start of the queue stage
//	w4  the burst's read stage, ns (its first request's: mask bit 0)
//	w5  the burst's route stage, ns (every request's)
const (
	pwSlot = iota
	pwBase
	pwMask
	pwEnqTS
	pwReadNs
	pwRouteNs
)

// burstMax caps a burst's sequence span at the mask's width: a long
// burst's head must not wait for its tail.
const burstMax = 64

// lowestBits returns mask's n lowest set bits (all of them if it has no
// more than n).
func lowestBits(mask uint64, n int) uint64 {
	rest := mask
	for ; n > 0 && rest != 0; n-- {
		rest &= rest - 1
	}
	return mask &^ rest
}

// runOp executes one data op on sess and appends the response frame to
// dst, the request's outbox slot. Shared by the inline path (reader
// goroutine) and the batched path (executor).
func runOp(dst []byte, sess *kvmap.Session, op uint8, id, key, a1, a2 uint64) []byte {
	switch op {
	case OpGet:
		if v, ok := sess.Get(key); ok {
			return AppendFrame(dst, id, StOK, v)
		}
		return AppendFrame(dst, id, StNotFound)
	case OpPut:
		if prev, had := sess.Put(key, a1); had {
			return AppendFrame(dst, id, StOK, prev)
		}
		return AppendFrame(dst, id, StNotFound, 0)
	case OpDel:
		if v, ok := sess.Remove(key); ok {
			return AppendFrame(dst, id, StOK, v)
		}
		return AppendFrame(dst, id, StNotFound)
	case OpCAS:
		swapped, found := sess.CompareAndSwap(key, a1, a2)
		switch {
		case swapped:
			return AppendFrame(dst, id, StOK)
		case found:
			return AppendFrame(dst, id, StCASMismatch)
		default:
			return AppendFrame(dst, id, StNotFound)
		}
	}
	return AppendFrame(dst, id, StBadRequest)
}

// executor is one shard's single consumer: it owns the shard's only
// kvmap session (the long-lived lease) and one mpmc consumer session,
// and is the only goroutine executing ops on the shard in batched mode
// — which is also what makes its trace-ring writes single-writer.
type executor struct {
	s     *Server
	shard int
	sess  *kvmap.Session // the shard's one long-lived map lease (nil after ErrClosed)
	cons  *mpmc.Session  // ring consumer session
	ts    *obs.PerThread

	// Producers nudge work only when idle is set, so the steady-state
	// enqueue path is one atomic load — no futex wake per node.
	idle atomic.Bool
	work chan struct{}
	// depth is the shard's one bound, in requests: producers reserve a
	// credit per request of a node, the executor returns them at dequeue.
	// Nodes ≤ requests ≤ RingSize, so the node ring itself is never full.
	depth atomic.Int64

	batches  atomic.Uint64
	nodes    atomic.Uint64 // ring nodes drained: ops/nodes is the batch factor of the hand-off
	ops      atomic.Uint64
	maxBatch atomic.Uint64
	spanSeq  uint64 // sampled per-request trace emission
	batchSeq uint64 // sampled exec_batch emission
}

func newExecutor(s *Server, shard int) (*executor, error) {
	sess, err := s.shards.Shard(shard).Acquire()
	if err != nil {
		return nil, err
	}
	cons, err := s.rings.Acquire()
	if err != nil {
		sess.Release()
		return nil, err
	}
	return &executor{
		s:     s,
		shard: shard,
		sess:  sess,
		cons:  cons,
		ts:    s.shards.Shard(shard).Manager().ObsStats().At(sess.TID()),
		work:  make(chan struct{}, 1),
	}, nil
}

// reserve takes up to want request credits, fewer when the shard has
// fewer left, by CAS so depth never overshoots RingSize.
func (e *executor) reserve(want int) int {
	for {
		d := e.depth.Load()
		k := min(int64(want), int64(e.s.cfg.RingSize)-d)
		if k <= 0 || e.depth.CompareAndSwap(d, d+k) {
			return int(max(k, 0))
		}
	}
}

// wake nudges an idle executor. Producers call it once per node; when
// the executor is busy draining it costs one load.
func (e *executor) wake() {
	if e.idle.Load() {
		select {
		case e.work <- struct{}{}:
		default:
		}
	}
}

func (e *executor) run() {
	defer e.s.execWG.Done()
	q := e.s.rings.Queue(e.shard)
	for {
		if gate := e.s.cfg.ExecGate; gate != nil {
			gate(e.shard)
		}
		n := e.drain(q)
		if n == 0 {
			// Empty ring: advertise idleness, then re-check — a producer that
			// enqueued between the drain and the store saw idle=false and did
			// not signal, so the recheck closes the sleep/wake race.
			e.idle.Store(true)
			if n = e.drain(q); n == 0 {
				select {
				case <-e.work:
					e.idle.Store(false)
					continue
				case <-e.s.execStop:
					// Shutdown: connections are gone and their pending entries
					// completed, but drain once more so nothing is stranded.
					e.drain(q)
					if e.sess != nil {
						e.sess.Release()
					}
					e.cons.Release()
					return
				}
			}
			e.idle.Store(false)
		}
		e.batches.Add(1)
		if uint64(n) > e.maxBatch.Load() {
			e.maxBatch.Store(uint64(n))
		}
		if trace.Enabled() {
			e.batchSeq++
			if e.batchSeq%uint64(e.s.cfg.SpanSample) == 0 {
				e.s.rings.Manager().TraceRecorder().Ring(e.cons.TID()).
					Record(trace.EvBatch, trace.RingPayload(e.shard, uint64(n)))
			}
		}
	}
}

// drain executes ring nodes — a node's requests are the set bits of its
// mask, lowest sequence first — until the ring reads empty and reports
// how many requests that was. The clock is read once per op (the end of
// one is the start of the next), the connection's ledger and writer are
// touched once per node.
func (e *executor) drain(q *mpmc.Queue) (n int) {
	var p mpmc.Payload
	var now int64
	for e.cons.Dequeue(q, &p) {
		if n == 0 {
			now = trace.Now()
		}
		k := bits.OnesCount64(p[pwMask])
		n += k
		e.depth.Add(-int64(k))
		e.nodes.Add(1)
		// Count the ops before completing them so the batched-ops ledger can
		// never trail a response a client has already observed.
		e.ops.Add(uint64(k))
		cp := e.s.tab[p[pwSlot]].Load() // never nil: the conn holds its slot while in flight
		for m := p[pwMask]; m != 0; m &= m - 1 {
			now = e.process(cp, &p, uint64(bits.TrailingZeros64(m)), now)
		}
		cp.endRun(int64(k))
	}
	return n
}

// endRun settles the k responses of one node an executor published into
// c's outbox: count them, wake the writer once, and only then release
// the in-flight count — c's teardown waits on it, so that is the
// executor's last touch of c. A vanished client changes nothing (its
// dead-socket writer discards the responses), so the ledger balances.
func (c *conn) endRun(k int64) {
	c.stripe.respsSent.Add(uint64(k))
	c.ob.wake()
	c.inflight.Add(-k)
}

// process executes request i of node p — read out of the outbox slot its
// response then overwrites — from start on, publishes the response and
// returns when the op ended. The queue stage is the real ring wait, from
// the burst's hand-off to this op's turn in its node and batch.
func (e *executor) process(cp *conn, p *mpmc.Payload, i uint64, start int64) int64 {
	s := e.s
	var r0, d0 uint64
	if e.ts != nil {
		r0, d0 = e.ts.Load(obs.Restarts), e.ts.Load(obs.DrainPasses)
	}
	seq := p[pwBase] + i
	sl := cp.ob.slot(seq)
	op, id, args := sl.staged()
	resp := e.exec(sl.data[:0], op, id, args[0], args[1], args[2])
	end := trace.Now()
	var stages [trace.NumStages]int64
	if i == 0 { // only the burst's first frame waited on the socket
		stages[trace.StageRead] = int64(p[pwReadNs])
	}
	stages[trace.StageRoute] = int64(p[pwRouteNs])
	stages[trace.StageQueue] = max(start-int64(p[pwEnqTS]), 0) // handed off while the previous op ran
	stages[trace.StageExec] = end - start
	status := resp[respStatusOffset]
	serverNs := stages[trace.StageRoute] + stages[trace.StageQueue] + stages[trace.StageExec]
	if op >= OpGet && op <= OpCAS && status <= StCASMismatch {
		s.lat[op][e.shard].ObserveNs(uint64(serverNs))
	}
	if serverNs >= int64(s.cfg.SlowThreshold) {
		var restarts, drains uint64
		if e.ts != nil {
			restarts, drains = e.ts.Load(obs.Restarts)-r0, e.ts.Load(obs.DrainPasses)-d0
		}
		s.slowlog.record(time.Now().UnixNano(), cp.id, op, status, e.shard,
			serverNs, stages, restarts, drains)
	}
	if e.sess != nil && trace.Enabled() {
		e.spanSeq++
		if e.spanSeq%uint64(s.cfg.SpanSample) == 0 {
			ring := s.shards.Shard(e.shard).Manager().TraceRecorder().Ring(e.sess.TID())
			for st, d := range stages {
				if d > 0 {
					ring.Record(trace.EvReqStage, trace.StagePayload(trace.Stage(st), d))
				}
			}
			ring.Record(trace.EvReqSpan, trace.SpanPayload(op, status, e.shard, serverNs))
			s.rings.Manager().TraceRecorder().Ring(e.cons.TID()).
				Record(trace.EvRingDeq, trace.RingPayload(e.shard, uint64(stages[trace.StageQueue])))
		}
	}
	cp.ob.complete(seq, resp)
	return end
}

// exec runs one op on the executor's session, appending the response to
// dst, and recovers from a capacity-starved allocator: the request is
// answered CAPACITY and the session — whose protocol state cannot be
// trusted past a mid-operation unwind — is cycled for a fresh lease,
// exactly what a disconnect does in inline mode. The executor itself
// survives; only the one request pays.
func (e *executor) exec(dst []byte, op uint8, id, key, a1, a2 uint64) (resp []byte) {
	if e.sess == nil {
		return AppendFrame(dst, id, StClosed)
	}
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok || !errors.Is(err, lease.ErrCapacityExhausted) {
				panic(r)
			}
			e.s.capTotal.Add(1)
			e.s.logf("shard %d executor: capacity exhausted: %v", e.shard, err)
			resp = AppendFrame(dst, id, StCapacity)
			e.refreshSession()
		}
	}()
	return runOp(dst, e.sess, op, id, key, a1, a2)
}

func (e *executor) refreshSession() {
	m := e.s.shards.Shard(e.shard)
	e.sess.Release()
	e.sess, e.ts = nil, nil
	for {
		sess, err := m.Acquire()
		if err == nil {
			e.sess = sess
			e.ts = m.Manager().ObsStats().At(sess.TID())
			return
		}
		if errors.Is(err, lease.ErrClosed) {
			return // teardown: remaining ring entries answer CLOSED
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// burst is the reader's account of what it staged since the last
// hand-off (in the outbox slots, routed by conn.masks).
type burst struct {
	waitFrom int64  // where the socket wait that ended in this burst started
	arrived  int64  // when its first request was decoded
	base     uint64 // outbox sequence of that request: bit 0 of every mask
	n        int64  // data requests staged
	byOp     [OpCAS + 1]uint64
}

// readLoopBatched is the batched twin of readLoopInline: decode every
// frame the last read(2) delivered, answer protocol ops locally, stage
// the data ops, and hand the burst to the shard executors before
// touching the socket again. Response order is restored by the outbox
// sequence allocated here, in request order (protocol ops inside a burst
// take sequences too: gaps in the masks).
func (c *conn) readLoopBatched() {
	fr := newFrameReader(c.nc, maxRequestFrame)
	b := burst{waitFrom: trace.Now()}
	for {
		// Hand off before the burst's sequences outgrow a mask, and before
		// blocking on the socket or on a full window: neither can clear
		// while this connection sits on staged requests.
		if b.n > 0 && (c.ob.seq-b.base == burstMax || !fr.buffered() || c.ob.full()) {
			c.handoff(&b)
		}
		f, err := fr.read()
		if err != nil {
			c.frameError(err)
			break
		}
		if _, ok := c.protocolOp(f); !ok {
			continue
		}
		seq, _ := c.begin()
		if b.n == 0 {
			b.base, b.arrived = seq, trace.Now()
		}
		b.n++
		b.byOp[f.Code]++
		c.ob.slot(seq).stage(f)
		c.masks[c.s.shards.ShardIndex(f.word(0))] |= 1 << (seq - b.base)
	}
	c.handoff(&b)
}

// handoff stamps a staged burst (the socket wait is its first request's
// read stage, decode-to-here every request's route stage, now the start
// of their queue stage), settles the ledger and enqueues one node per
// shard touched.
func (c *conn) handoff(b *burst) {
	if b.n == 0 {
		return
	}
	now := trace.Now()
	c.inflight.Add(b.n)
	c.stripe.reqsRead.Add(uint64(b.n))
	for op := OpGet; op <= OpCAS; op++ {
		if b.byOp[op] != 0 {
			c.stripe.reqsTotal[op].Add(b.byOp[op])
		}
	}
	p := mpmc.Payload{pwSlot: uint64(c.slot), pwBase: b.base, pwEnqTS: uint64(now),
		pwReadNs: uint64(max(b.arrived-b.waitFrom, 0)), pwRouteNs: uint64(max(now-b.arrived, 0))}
	for shard, mask := range c.masks {
		if mask != 0 {
			c.masks[shard] = 0
			c.enqueue(shard, &p, mask)
		}
	}
	*b = burst{waitFrom: trace.Now()}
}

// enqueue puts mask's requests on shard's ring as request credits allow:
// the lowest sequences that fit go at once as one node, the rest wait up
// to RingWait for credits (nudging the executor, the only way out), and
// what still does not fit is answered BUSY.
func (c *conn) enqueue(shard int, p *mpmc.Payload, mask uint64) {
	s, e := c.s, c.s.execs[shard]
	var deadline time.Time
	for mask != 0 {
		k := e.reserve(bits.OnesCount64(mask))
		if k == 0 {
			if deadline.IsZero() {
				deadline = time.Now().Add(s.cfg.RingWait)
			} else if time.Now().After(deadline) {
				break
			}
			e.wake()
			time.Sleep(5 * time.Microsecond)
			continue
		}
		p[pwMask] = lowestBits(mask, k)
		mask &^= p[pwMask]
		if !c.prod.TryEnqueue(s.rings.Queue(shard), p) {
			panic("server: node ring full under the request credit")
		}
		s.stripes[shard].ops.Add(uint64(k))
		e.wake()
		if trace.Enabled() {
			c.spanSeq++
			if c.spanSeq%uint64(s.cfg.SpanSample) == 0 {
				s.rings.Manager().TraceRecorder().Ring(c.prod.TID()).
					Record(trace.EvRingEnq, trace.RingPayload(shard, uint64(e.depth.Load())))
			}
		}
	}
	for ; mask != 0; mask &= mask - 1 {
		seq := p[pwBase] + uint64(bits.TrailingZeros64(mask))
		sl := c.ob.slot(seq)
		_, id, _ := sl.staged()
		c.inflight.Add(-1)
		s.busyTotal.Add(1)
		s.ringFull.Add(1)
		c.complete(seq, AppendFrame(sl.data[:0], id, StBusy))
	}
}
