// The request path. A connection's reader only decodes and routes, one
// pipeline burst — what one read(2) delivered — at a time: each data
// command, of either wire format, is staged in the outbox slot its
// response will occupy, then the burst is handed off with one timestamp,
// one ledger update, one ring node and one wake. Every connection is
// served by one executor for its lifetime (register assigns it), and each
// executor holds one long-lived kvmap session in every shard: keys still
// route to their shard's map by hash, so shards keep their own arenas,
// registries and reclamation phases, but a burst is one node however
// many shards its keys touch, and a connection's requests run in the
// order it sent them. The session economy is exactly executors × shards
// leases. The executor's op table is the only place a data op touches a
// map; the connection's codec encodes each result over its request in
// the outbox slot, and the slots restore wire order.
//
// The rings are the OA-native bounded MPMC queues of internal/mpmc, one
// per executor: the server's hot path runs through the reclamation
// scheme it serves, once per burst rather than once per request. They are
// also the only admission control: an executor with RingSize requests
// queued makes the producer wait up to RingWait for it to catch up, then
// answer BUSY.
package server

import (
	"errors"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/kvmap"
	"repro/internal/lease"
	"repro/internal/metrics"
	"repro/internal/mpmc"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/ttlcache"
)

// Ring node layout — one node per burst, six of the mpmc.PayloadWords = 8
// words used:
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

// executor is the single consumer of one ring: it executes the ops of the
// connections assigned to it, holding one mpmc consumer session and a
// long-lived kvmap session in every shard, and is the only user of each
// of those sessions — which is also what makes its trace-ring writes
// single-writer.
type executor struct {
	s      *Server
	id     int            // its position: ring, credit counter and ExecGate argument
	shards []shardSession // indexed by shard
	cons   *mpmc.Session  // ring consumer session
	conns  int            // connections assigned to it; guarded by s.mu

	// Producers nudge work only when idle is set, so the steady-state
	// enqueue path is one atomic load — no futex wake per node.
	idle atomic.Bool
	work chan struct{}
	// depth is the ring's one bound, in requests: producers reserve a
	// credit per request of a node, the executor returns them at dequeue.
	// Nodes ≤ requests ≤ RingSize, so the node ring itself is never full.
	depth atomic.Int64

	batches  atomic.Uint64
	nodes    atomic.Uint64 // ring nodes drained: ops/nodes is the batch factor of the hand-off
	ops      atomic.Uint64
	maxBatch atomic.Uint64
	spanSeq  uint64 // sampled per-request trace emission
	batchSeq uint64 // sampled exec_batch emission

	// lat[op] is the server-side latency histogram of one command on this
	// executor, recorded from the request span for every completed data op
	// (statuses OK/NOT_FOUND/CAS_MISMATCH). Only the OpGet..OpCAS rows are
	// populated.
	lat [OpCAS + 1]metrics.Histogram
}

// shardSession is what an executor holds in one shard.
type shardSession struct {
	shard int
	sess  *kvmap.Session  // the long-lived map lease (nil after ErrClosed)
	ts    *obs.PerThread  // its counter stripe: restart and drain attribution
	cache *ttlcache.Cache // the shard's TTL/LRU layer (nil without Config.Cache)
}

// newExecutor leases executor id's session in every shard and its ring
// consumer session.
func newExecutor(s *Server, id int) (*executor, error) {
	e := &executor{s: s, id: id, shards: make([]shardSession, s.shards.NumShards()), work: make(chan struct{}, 1)}
	for i := range e.shards {
		m := s.shards.Shard(i)
		sess, err := m.Acquire()
		if err != nil {
			e.release()
			return nil, err
		}
		sh := &e.shards[i]
		sh.shard, sh.sess, sh.ts = i, sess, m.Manager().ObsStats().At(sess.TID())
		if s.cfg.Cache != nil {
			sh.cache = s.cfg.Cache.Cache(i)
		}
	}
	cons, err := s.rings.Acquire()
	if err != nil {
		e.release()
		return nil, err
	}
	e.cons = cons
	return e, nil
}

// release hands back every shard session the executor still holds.
func (e *executor) release() {
	for i := range e.shards {
		if sh := &e.shards[i]; sh.sess != nil {
			sh.sess.Release()
			sh.sess = nil
		}
	}
}

// reserve takes up to want request credits, fewer when the ring has
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
	q := e.s.rings.Queue(e.id)
	for {
		if gate := e.s.cfg.ExecGate; gate != nil {
			gate(e.id)
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
					e.release()
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
					Record(trace.EvBatch, trace.RingPayload(e.id, uint64(n)))
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
		var replies uint64
		for m := p[pwMask]; m != 0; m &= m - 1 {
			var replied bool
			if now, replied = e.process(cp, &p, uint64(bits.TrailingZeros64(m)), now); replied {
				replies++
			}
		}
		cp.endRun(int64(k), replies)
	}
	return n
}

// endRun settles one node an executor ran against c: its k requests
// published replies responses into c's outbox (fewer than k when keys of
// a variadic command were among them). Count those, wake the writer once,
// and only then release the in-flight count — c's teardown waits on it,
// so that is the executor's last touch of c. A vanished client changes nothing (its
// dead-socket writer discards the responses), so the ledger balances.
func (c *conn) endRun(k int64, replies uint64) {
	c.stripe.respsSent.Add(replies)
	c.ob.wake()
	c.inflight.Add(-k)
}

// process executes request i of node p — read out of the outbox slot its
// response then overwrites — from start on, publishes the response its
// command owes (none yet for a key of a variadic command that is not the
// last one in) and returns when the op ended. The queue stage is the real
// ring wait, from the burst's hand-off to this op's turn in its node and
// batch.
func (e *executor) process(cp *conn, p *mpmc.Payload, i uint64, start int64) (end int64, replied bool) {
	seq := p[pwBase] + i
	op, id, key, a1, a2 := cp.ob.slot(seq).staged()
	sh := &e.shards[e.s.shards.ShardIndex(key)]
	var r0, d0 uint64
	if sh.ts != nil {
		r0, d0 = sh.ts.Load(obs.Restarts), sh.ts.Load(obs.DrainPasses)
	}
	status, val := e.exec(sh, cp.cached, op, key, a1, a2)
	end = trace.Now()
	at, status, val, replied := cp.settle(seq, status, val)
	if !replied {
		return end, false
	}
	var stages [trace.NumStages]int64
	if i == 0 { // only the burst's first frame waited on the socket
		stages[trace.StageRead] = int64(p[pwReadNs])
	}
	stages[trace.StageRoute] = int64(p[pwRouteNs])
	stages[trace.StageQueue] = max(start-int64(p[pwEnqTS]), 0) // handed off while the previous op ran
	stages[trace.StageExec] = end - start
	e.observe(sh, cp.id, opClass[op], status, &stages, r0, d0)
	cp.publish(at, op, id, status, val)
	return end, true
}

// observe records one answered request on shard sh before its reply is
// published (a client that has its reply must find it counted): the
// executor's per-command latency histogram sees every completed data op,
// the slow log any request whose server-side time crossed the threshold —
// with the restarts and drain passes the shard session absorbed since
// r0/d0 — and 1-in-SpanSample spans go to that session's trace ring, the
// same single-writer ring its reclamation events go to.
func (e *executor) observe(sh *shardSession, connID uint64, op, status uint8, stages *[trace.NumStages]int64, r0, d0 uint64) {
	s := e.s
	serverNs := stages[trace.StageRoute] + stages[trace.StageQueue] + stages[trace.StageExec]
	if status <= StCASMismatch {
		e.lat[op].ObserveNs(uint64(serverNs))
	}
	if serverNs >= int64(s.cfg.SlowThreshold) {
		var restarts, drains uint64
		if sh.ts != nil {
			restarts, drains = sh.ts.Load(obs.Restarts)-r0, sh.ts.Load(obs.DrainPasses)-d0
		}
		s.slowlog.record(time.Now().UnixNano(), connID, op, status, sh.shard,
			serverNs, *stages, restarts, drains)
	}
	if sh.sess != nil && trace.Enabled() {
		e.spanSeq++
		if e.spanSeq%uint64(s.cfg.SpanSample) == 0 {
			ring := s.shards.Shard(sh.shard).Manager().TraceRecorder().Ring(sh.sess.TID())
			for st, d := range stages {
				if d > 0 {
					ring.Record(trace.EvReqStage, trace.StagePayload(trace.Stage(st), d))
				}
			}
			ring.Record(trace.EvReqSpan, trace.SpanPayload(op, status, sh.shard, serverNs))
			s.rings.Manager().TraceRecorder().Ring(e.cons.TID()).
				Record(trace.EvRingDeq, trace.RingPayload(e.id, uint64(stages[trace.StageQueue])))
		}
	}
}

// exec runs one op on shard sh through the op table and recovers from a
// capacity-starved allocator: the request is answered CAPACITY and the
// shard session — whose protocol state cannot be trusted past a
// mid-operation unwind — is cycled for a fresh lease. The executor, its
// other shards' sessions and the connection survive; only the one
// request pays.
func (e *executor) exec(sh *shardSession, cached bool, op uint8, key, a1, a2 uint64) (status uint8, val uint64) {
	if sh.sess == nil {
		return StClosed, 0
	}
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok || !errors.Is(err, lease.ErrCapacityExhausted) {
				panic(r)
			}
			e.s.capTotal.Add(1)
			e.s.logf("executor %d: shard %d capacity exhausted: %v", e.id, sh.shard, err)
			status, val = StCapacity, 0
			sh.refresh(e.s.shards.Shard(sh.shard))
		}
	}()
	if cached && op != OpCAS { // CAS has no cache form: the RESP extension swaps the raw word
		return e.applyCached(sh, op, key, a1, a2)
	}
	return apply(sh.sess, op, key, a1, a2)
}

func found(ok bool) uint8 {
	if ok {
		return StOK
	}
	return StNotFound
}

// hit is the outcome of a counting op: one key hit, or none.
func hit(ok bool) (status uint8, val uint64) {
	if ok {
		return StOK, 1
	}
	return StNotFound, 0
}

// apply is the op table over the raw map: every binary request, and RESP
// without the cache layer.
func apply(sess *kvmap.Session, op uint8, key, a1, a2 uint64) (status uint8, val uint64) {
	switch op {
	case OpGet:
		v, ok := sess.Get(key)
		return found(ok), v
	case opExists:
		_, ok := sess.Get(key)
		return hit(ok)
	case OpPut:
		prev, had := sess.Put(key, a1)
		return found(had), prev
	case OpDel:
		v, ok := sess.Remove(key)
		return found(ok), v
	case opRemove:
		_, ok := sess.Remove(key)
		return hit(ok)
	case OpCAS:
		swapped, present := sess.CompareAndSwap(key, a1, a2)
		switch {
		case swapped:
			return StOK, 0
		case present:
			return StCASMismatch, 0
		}
		return StNotFound, 0
	}
	return StBadRequest, 0
}

// applyCached is the op table over the shard's TTL/LRU layer, wrapped
// around the executor's session in that shard (a value: nothing is
// allocated): RESP with Config.Cache set. GET and EXISTS expire lazily,
// SET takes the default TTL and evicts under pressure; a Set that still
// finds no node after eviction relief answers CAPACITY with the session
// intact.
func (e *executor) applyCached(sh *shardSession, op uint8, key, a1, a2 uint64) (status uint8, val uint64) {
	cs := sh.cache.With(sh.sess)
	switch op {
	case OpGet:
		v, ok := cs.Get(key)
		return found(ok), v
	case opExists:
		return hit(cs.Contains(key))
	case OpPut, opSetEX:
		var ttl time.Duration // 0: the cache's default
		if op == opSetEX {
			ttl, a1 = time.Duration(a1)*time.Second, a2
		}
		if err := cs.SetTTL(key, a1, ttl); err != nil {
			e.s.capTotal.Add(1)
			return StCapacity, 0
		}
		return StOK, 0
	case opRemove:
		return hit(cs.Remove(key))
	case opExpire:
		if int64(a1) <= 0 { // a non-positive TTL deletes the key, as in Redis
			return hit(cs.Remove(key))
		}
		return hit(cs.Expire(key, time.Duration(a1)*time.Second))
	case opTTL:
		remaining, hasTTL, ok := cs.TTL(key)
		secs := int64(-2) // absent or expired
		switch {
		case ok && hasTTL: // rounded up, so SETEX k 1 v answers :1 immediately
			secs = int64((remaining + time.Second - 1) / time.Second)
		case ok:
			secs = -1
		}
		return found(ok), uint64(secs)
	}
	return StBadRequest, 0
}

// refresh cycles the session for a fresh lease of shard map m.
func (sh *shardSession) refresh(m *kvmap.Map) {
	sh.sess.Release()
	sh.sess, sh.ts = nil, nil
	for {
		sess, err := m.Acquire()
		if err == nil {
			sh.sess, sh.ts = sess, m.Manager().ObsStats().At(sess.TID())
			return
		}
		if errors.Is(err, lease.ErrClosed) {
			return // teardown: remaining ring entries answer CLOSED
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// burst is the reader's account of what it staged since the last
// hand-off (in the outbox slots; per shard in conn.shardOps).
type burst struct {
	waitFrom int64  // where the socket wait that ended in this burst started
	arrived  int64  // when its first request was decoded
	base     uint64 // outbox sequence of that request: bit 0 of mask
	mask     uint64 // bit i set = slot base+i holds a staged data op
	n        int64  // slots staged: one per key
	reqs     uint64 // requests they make up: a variadic command is one
	byOp     [OpCAS + 1]uint64
}

// burstReader is the socket as the codecs read it. A read is where the
// reader may block, so it ends the burst: everything staged is handed to
// the executors first — staged requests never wait on the peer.
type burstReader struct{ c *conn }

func (r burstReader) Read(p []byte) (int, error) {
	r.c.handoff()
	return r.c.nc.Read(p)
}

// readLoop is the one connection loop: decode every command the last
// read(2) delivered, answer protocol ops and refusals locally, stage the
// data ops; the hand-off happens when the decoder next touches the socket
// (burstReader) or the burst outgrows a node (reserve). Response order is
// restored by the outbox sequence allocated here, in request order
// (protocol ops inside a burst take sequences too: gaps in the mask).
func (c *conn) readLoop() {
	c.b.waitFrom = trace.Now()
	for {
		cmd, reply, err := c.cd.next()
		local := reply != nil || cmd.op == OpStats
		if local {
			c.stripe.reqsRead.Add(1)
			if cmd.bad {
				c.s.badTotal.Add(1)
			}
			if cmd.op != 0 {
				c.stripe.reqsTotal[cmd.op].Add(1)
			}
			if reply == nil { // rendered after the count: a STATS document includes its own request
				reply = c.cd.appendReply(nil, OpStats, cmd.id, StOK, cmd.key)
			}
			seq := c.reserve()
			c.stripe.respsSent.Add(1)
			c.ob.complete(seq, reply)
			c.ob.wake()
		}
		if err != nil {
			break
		}
		if !local {
			c.stage(cmd)
		}
	}
	c.handoff()
}

// reserve assigns the next response sequence, in request order. It hands
// the staged burst off first when its sequences would outgrow a mask or
// the window is full — neither clears while this connection sits on
// staged requests — and then blocks while the window is full: the
// backpressure contract is that the reader stops reading until the writer
// catches up.
func (c *conn) reserve() uint64 {
	if c.b.n > 0 && (c.ob.seq-c.b.base == burstMax || c.ob.full()) {
		c.handoff()
	}
	if c.ob.full() {
		c.ob.park(func() bool { return !c.ob.full() })
	}
	return c.ob.alloc()
}

// stage parks one data command in its outbox slot and tallies its shard.
// The keys of a variadic command each take a slot, marked as joined and
// carrying the sequence of the last one, where the command's one reply
// goes (settle). A connection has one join word, so a variadic command
// waits for the previous one to be answered.
func (c *conn) stage(cmd command) {
	first := c.joinLeft == 0 // not a further key of the variadic command being staged
	if cmd.keys > 1 {
		if c.join.Load()&joinPending != 0 {
			c.handoff()
			c.ob.park(func() bool { return c.join.Load()&joinPending == 0 })
		}
		c.join.Store(uint64(cmd.keys))
		c.joinLeft = cmd.keys
	}
	seq := c.reserve()
	b := &c.b
	if b.n == 0 {
		b.base, b.arrived = seq, trace.Now()
	}
	b.n++
	if first { // one request, however many keys
		if cmd.keys > 1 {
			c.joinTail = seq + uint64(cmd.keys) - 1
		}
		b.reqs++
		b.byOp[opClass[cmd.op]]++
	}
	joined := c.joinLeft > 0
	if joined {
		c.joinLeft--
		cmd.id = c.joinTail
	}
	c.ob.slot(seq).stage(cmd, joined)
	b.mask |= 1 << (seq - b.base)
	c.shardOps[c.s.shards.ShardIndex(cmd.key)]++
}

// The join word of a connection's variadic command in flight: keys still
// out in the low byte, keys hit so far in the next, and above them the
// first failing status any key met.
const (
	joinPending = 0xff // mask
	joinHits    = 8    // shift
	joinStatus  = 16   // shift
)

// Both counts are a byte: the decoder must never hand out a command of
// more keys than one holds (does not compile otherwise).
const _ = uint(joinPending - (respMaxArgs - 1))

// settle turns the outcome of the request staged at seq into the reply
// its command owes: its own, at seq — or, for a key of a variadic
// command, nothing until the command's last key is in, and then the
// command's (how many keys hit, or the failure one of them met) at the
// tail sequence. Every other key's slot is published empty. Called by
// whoever resolved the request: its executor, or the reader refusing it.
func (c *conn) settle(seq uint64, status uint8, val uint64) (at uint64, st uint8, v uint64, reply bool) {
	sl := c.ob.slot(seq)
	if !sl.join {
		return seq, status, val, true
	}
	_, tail, _, _, _ := sl.staged()
	if seq != tail {
		c.ob.complete(seq, nil)
	}
	for {
		old := c.join.Load()
		word := old - 1 + val<<joinHits // val is a counting op's: 1 | 0
		if status > StNotFound && old>>joinStatus == 0 {
			word |= uint64(status) << joinStatus
		}
		if !c.join.CompareAndSwap(old, word) {
			continue
		}
		if word&joinPending != 0 {
			return 0, 0, 0, false
		}
		if st = uint8(word >> joinStatus); st == 0 {
			st = StOK
		}
		return tail, st, word >> joinHits & 0xff, true
	}
}

// publish encodes the reply to op into sequence seq's slot and releases
// it to the writer.
func (c *conn) publish(seq uint64, op uint8, id uint64, status uint8, val uint64) {
	c.ob.complete(seq, c.cd.appendReply(c.ob.slot(seq).data[:0], op, id, status, val))
}

// handoff stamps the staged burst (the socket wait is its first
// request's read stage, decode-to-here every request's route stage, now
// the start of their queue stage), settles the ledger and enqueues it as
// one node on the connection's executor's ring. The per-shard tallies are
// counted here, before the enqueue: past it, a client may hold a reply
// before this goroutine runs again.
func (c *conn) handoff() {
	b := &c.b
	if b.n == 0 {
		return
	}
	now := trace.Now()
	c.inflight.Add(b.n)
	c.stripe.reqsRead.Add(b.reqs)
	for op := OpGet; op <= OpCAS; op++ {
		if b.byOp[op] != 0 {
			c.stripe.reqsTotal[op].Add(b.byOp[op])
		}
	}
	for shard, n := range c.shardOps {
		if n != 0 {
			c.s.stripes[shard].ops.Add(n)
			c.shardOps[shard] = 0
		}
	}
	p := mpmc.Payload{pwSlot: uint64(c.slot), pwBase: b.base, pwEnqTS: uint64(now),
		pwReadNs: uint64(max(b.arrived-b.waitFrom, 0)), pwRouteNs: uint64(max(now-b.arrived, 0))}
	c.enqueue(&p, b.mask)
	*b = burst{waitFrom: trace.Now()}
}

// enqueue puts mask's requests on the executor's ring as request credits
// allow: the lowest sequences that fit go at once as one node, the rest
// wait up to RingWait for credits (nudging the executor, the only way
// out), and what still does not fit is answered BUSY.
func (c *conn) enqueue(p *mpmc.Payload, mask uint64) {
	s, e := c.s, c.exec
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
		if trace.Enabled() { // traced before the enqueue, like the counts
			c.spanSeq++
			if c.spanSeq%uint64(s.cfg.SpanSample) == 0 {
				s.rings.Manager().TraceRecorder().Ring(c.prod.TID()).
					Record(trace.EvRingEnq, trace.RingPayload(e.id, uint64(e.depth.Load())))
			}
		}
		if !c.prod.TryEnqueue(s.rings.Queue(e.id), p) {
			panic("server: node ring full under the request credit")
		}
		e.wake()
	}
	for ; mask != 0; mask &= mask - 1 {
		seq := p[pwBase] + uint64(bits.TrailingZeros64(mask))
		op, id, _, _, _ := c.ob.slot(seq).staged()
		c.inflight.Add(-1)
		s.busyTotal.Add(1)
		s.ringFull.Add(1)
		if at, status, val, reply := c.settle(seq, StBusy, 0); reply {
			c.publish(at, op, id, status, val)
			c.stripe.respsSent.Add(1)
			c.ob.wake()
		}
	}
}
