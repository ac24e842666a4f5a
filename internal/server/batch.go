// Per-shard batched execution. In batched mode (the default) a reader
// goroutine only parses and routes, one pipeline burst — what one
// read(2) delivered — at a time: each data request is packed into a
// fixed-size mpmc.Payload, then the burst is handed off with one
// timestamp, one ledger update and one wake per shard touched. One
// executor goroutine per shard holds the shard's only long-lived kvmap
// lease and drains its ring in batches, so lease acquisition,
// warning-check placement and map cache misses amortize across every
// connection hitting the shard — and the session economy shrinks from
// conns×shards leases to exactly one per shard.
//
// The rings are the OA-native bounded MPMC queues of internal/mpmc: the
// server's hot path runs through the reclamation scheme it serves.
// Backpressure inverts the old model: instead of per-(conn,shard) BUSY
// at lease time, a full ring makes the producer wait up to RingWait for
// the executor to catch up, then answer BUSY. Executors encode responses
// into each connection's outbox slots, which restore wire order.
package server

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/kvmap"
	"repro/internal/lease"
	"repro/internal/mpmc"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Request payload layout (mpmc.PayloadWords = 8 words):
//
//	w0  op:8 | unused:24 | conn slot:24 | unused:8
//	w1  request id (echoed into the response frame)
//	w2  key
//	w3  second argument (PUT value, CAS old)
//	w4  third argument (CAS new)
//	w5  hand-off timestamp of the burst (trace.Now), start of the queue stage
//	w6  readNs:32 | routeNs:32 (the burst's reader-side stages, saturated)
//	w7  outbox sequence on the issuing connection
const (
	pwMeta = iota
	pwID
	pwKey
	pwArg1
	pwArg2
	pwEnqTS
	pwStages
	pwSeq
)

func packMeta(op uint8, slot uint32) uint64 {
	return uint64(op)<<56 | uint64(slot&0xFFFFFF)<<8
}

func unpackMeta(w uint64) (op uint8, slot uint32) {
	return uint8(w >> 56), uint32(w>>8) & 0xFFFFFF
}

func sat32(ns int64) uint64 {
	if ns < 0 {
		ns = 0
	}
	if ns > 0xFFFFFFFF {
		ns = 0xFFFFFFFF
	}
	return uint64(ns)
}

func packStageNs(readNs, routeNs int64) uint64 {
	return sat32(readNs)<<32 | sat32(routeNs)
}

func unpackStageNs(w uint64) (readNs, routeNs int64) {
	return int64(w >> 32), int64(w & 0xFFFFFFFF)
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
	// enqueue path is one atomic load — no futex wake per request.
	idle atomic.Bool
	work chan struct{}

	batches  atomic.Uint64
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

// wake nudges an idle executor. Producers call it once per burst and
// shard touched; when the executor is busy draining it costs one load.
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

// drain executes ring entries until the ring reads empty and reports how
// many. The clock is read once per op: the end of one op is the start of
// the next. Consecutive entries of one connection form a run (of at most
// burstMax), and that connection's ledger and writer are touched once
// per run, not per op.
func (e *executor) drain(q *mpmc.Queue) (n int) {
	var p mpmc.Payload
	var run *conn // connection of the current run
	var k, now int64
	for e.cons.Dequeue(q, &p) {
		if n == 0 {
			now = trace.Now()
		}
		n++
		// Count the op before completing it so the batched-ops ledger can
		// never trail a response a client has already observed.
		e.ops.Add(1)
		op, slot := unpackMeta(p[pwMeta])
		cp := e.s.tab[slot].Load()      // never nil: the conn holds its slot while in flight
		if cp != run || k == burstMax { // a run is capped so its head never waits long for the wake
			if run != nil {
				run.endRun(k)
			}
			run, k = cp, 0
		}
		now = e.process(cp, op, &p, now)
		k++
	}
	if run != nil {
		run.endRun(k)
	}
	return n
}

// endRun settles a run of k responses an executor published into c's
// outbox: count them, wake the writer once, and only then release the
// in-flight count — c's teardown waits on it, so that is the executor's
// last touch of c. This happens even when the client has vanished (the
// dead-socket writer discards the responses), so the ledger balances.
func (c *conn) endRun(k int64) {
	c.stripe.respsSent.Add(uint64(k))
	c.ob.wake()
	c.inflight.Add(-k)
}

// process executes one dequeued request from start on, publishes the
// response in its connection's outbox slot and returns when the op
// ended. The queue stage is the real ring wait: burst hand-off → this
// op's turn, position within the executor's batch included.
func (e *executor) process(cp *conn, op uint8, p *mpmc.Payload, start int64) int64 {
	s := e.s
	queueNs := max(start-int64(p[pwEnqTS]), 0) // handed off while the previous op ran
	var r0, d0 uint64
	if e.ts != nil {
		r0, d0 = e.ts.Load(obs.Restarts), e.ts.Load(obs.DrainPasses)
	}
	resp := e.exec(cp.ob.buf(p[pwSeq]), op, p[pwID], p[pwKey], p[pwArg1], p[pwArg2])
	end := trace.Now()
	execNs := end - start
	readNs, routeNs := unpackStageNs(p[pwStages])
	status := resp[respStatusOffset]
	serverNs := routeNs + queueNs + execNs
	if op >= OpGet && op <= OpCAS && status <= StCASMismatch {
		s.lat[op][e.shard].ObserveNs(uint64(serverNs))
	}
	if serverNs >= int64(s.cfg.SlowThreshold) {
		var stages [trace.NumStages]int64
		stages[trace.StageRead] = readNs
		stages[trace.StageRoute] = routeNs
		stages[trace.StageExec] = execNs
		stages[trace.StageQueue] = queueNs
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
			var durs [trace.NumStages]int64
			durs[trace.StageRead], durs[trace.StageRoute] = readNs, routeNs
			durs[trace.StageExec], durs[trace.StageQueue] = execNs, queueNs
			for st, d := range durs {
				if d > 0 {
					ring.Record(trace.EvReqStage, trace.StagePayload(trace.Stage(st), d))
				}
			}
			ring.Record(trace.EvReqSpan, trace.SpanPayload(op, status, e.shard, serverNs))
			s.rings.Manager().TraceRecorder().Ring(e.cons.TID()).
				Record(trace.EvRingDeq, trace.RingPayload(e.shard, uint64(queueNs)))
		}
	}
	cp.ob.complete(p[pwSeq], resp)
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

// enqueueWait retries a hand-off that found shard's ring full for up to
// RingWait, nudging the executor — the only way out. False means the
// wait expired and the caller answers BUSY.
func (c *conn) enqueueWait(shard int, p *mpmc.Payload) bool {
	q := c.s.rings.Queue(shard)
	e := c.s.execs[shard]
	deadline := time.Now().Add(c.s.cfg.RingWait)
	for {
		e.wake()
		time.Sleep(5 * time.Microsecond)
		p[pwEnqTS] = uint64(trace.Now())
		if c.prod.TryEnqueue(q, p) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// burstMax caps a hand-off: a long burst's head must not wait for its tail.
const burstMax = 64

// readLoopBatched is the batched twin of readLoopInline: decode every
// frame the last read(2) delivered, answer protocol ops locally, stage
// the data ops, and hand the burst to the shard executors before
// touching the socket again. Response order is restored by the outbox
// sequence allocated here, in request order.
func (c *conn) readLoopBatched() {
	fr := newFrameReader(c.nc, maxRequestFrame)
	var stage [burstMax]mpmc.Payload
	n := 0
	waitFrom := trace.Now() // where the socket wait of the next burst starts
	var arrived int64       // when the staged burst's first frame was decoded
	for {
		// Hand off before blocking on the socket or on a full window:
		// neither can clear while this connection sits on staged requests.
		if n > 0 && (n == len(stage) || !fr.buffered() || c.ob.full()) {
			c.handoff(stage[:n], arrived-waitFrom, arrived)
			n, waitFrom = 0, trace.Now()
		}
		f, err := fr.read()
		if err != nil {
			c.frameError(err)
			break
		}
		nargs, ok := c.protocolOp(f)
		if !ok {
			continue
		}
		if n == 0 {
			arrived = trace.Now()
		}
		p := &stage[n]
		n++
		*p = mpmc.Payload{pwMeta: packMeta(f.Code, c.slot), pwID: f.ID}
		for i := 0; i < nargs; i++ {
			p[pwKey+i] = f.word(i)
		}
		p[pwSeq], _ = c.begin()
	}
	c.handoff(stage[:n], arrived-waitFrom, arrived)
}

// handoff stamps a staged burst (the socket wait is its first request's
// read stage, decode-to-here every request's route stage, now the start
// of their queue stage), settles the ledger, routes each request onto
// its shard's ring, and wakes each shard touched once.
func (c *conn) handoff(stage []mpmc.Payload, readNs, arrived int64) {
	if len(stage) == 0 {
		return
	}
	s := c.s
	now := trace.Now()
	c.inflight.Add(int64(len(stage)))
	c.stripe.reqsRead.Add(uint64(len(stage)))
	var byOp [OpCAS + 1]uint64
	for i := range stage {
		p := &stage[i]
		p[pwEnqTS], p[pwStages] = uint64(now), packStageNs(readNs, now-arrived)
		readNs = 0 // only the burst's first frame waited on the socket
		op, _ := unpackMeta(p[pwMeta])
		byOp[op]++
		shard := s.shards.ShardIndex(p[pwKey])
		if !c.prod.TryEnqueue(s.rings.Queue(shard), p) {
			c.wakeRouted() // the shards already fed must not sit out this one's wait
			if !c.enqueueWait(shard, p) {
				c.inflight.Add(-1)
				s.busyTotal.Add(1)
				s.ringFull.Add(1)
				c.complete(p[pwSeq], AppendFrame(c.ob.buf(p[pwSeq]), p[pwID], StBusy))
				continue
			}
		}
		c.routed[shard]++
		if trace.Enabled() {
			c.spanSeq++
			if c.spanSeq%uint64(s.cfg.SpanSample) == 0 {
				s.rings.Manager().TraceRecorder().Ring(c.prod.TID()).
					Record(trace.EvRingEnq, trace.RingPayload(shard, uint64(s.rings.Queue(shard).Len())))
			}
		}
	}
	for op := OpGet; op <= OpCAS; op++ {
		if byOp[op] != 0 {
			c.stripe.reqsTotal[op].Add(byOp[op])
		}
	}
	c.wakeRouted()
}

// wakeRouted counts what the hand-off enqueued so far into the shard
// stripes and wakes those shards' executors.
func (c *conn) wakeRouted() {
	for shard, k := range c.routed {
		if k != 0 {
			c.s.stripes[shard].ops.Add(uint64(k))
			c.s.execs[shard].wake()
			c.routed[shard] = 0
		}
	}
}
