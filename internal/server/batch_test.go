package server

import (
	"encoding/json"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvmap"
	"repro/internal/trace"
)

// newBatchedServer serves a sharded map on both listeners.
func newBatchedServer(t *testing.T, threads, shards int, cfg Config) (s *Server, addr, respAddr string) {
	t.Helper()
	cfg.Shards = kvmap.NewSharded(core.Config{MaxThreads: threads, Capacity: 1 << 16}, 1<<14, shards)
	return startTestServer(t, cfg)
}

// TestBatchedLeaseEconomy is the session-economy claim: the leased
// population is the executors' — one session per executor in every shard
// — no matter how many connections are hitting how many shards.
func TestBatchedLeaseEconomy(t *testing.T) {
	s, addr, _ := newBatchedServer(t, 8, 4, Config{})
	sessions := len(s.execs) * s.shards.NumShards()
	if len(s.execs) != 4 {
		t.Fatalf("%d executors over 4 shards of 8 sessions each, want 4", len(s.execs))
	}

	const conns = 6
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr, 32)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			// Stride the keyspace so every connection touches every shard.
			for i := 0; i < 256; i++ {
				ca, err := c.Put(uint64(i), uint64(w))
				if err != nil {
					t.Error(err)
					return
				}
				if i%32 == 31 {
					c.Flush()
				}
				if i == 255 {
					if err := ca.Wait(); err != nil {
						t.Error(err)
					}
				}
			}
			// Leases are checked while this connection is still open.
			if got := s.shards.SessionsLeased(); got != sessions {
				t.Errorf("sessions leased = %d during load, want %d (executors x shards)", got, sessions)
			}
		}(w)
	}
	wg.Wait()

	snap := s.snapshot()
	if snap.RingCap == 0 {
		t.Fatalf("ring_cap = %d, want a sized ring", snap.RingCap)
	}
	if snap.Executors != len(s.execs) || len(snap.RingDepth) != len(s.execs) {
		t.Fatalf("executors = %d with %d ring depths, want %d", snap.Executors, len(snap.RingDepth), len(s.execs))
	}
	if snap.SessionsInUse != sessions {
		t.Fatalf("sessions leased = %d at steady state, want exactly %d (executors x shards, not conns x shards)",
			snap.SessionsInUse, sessions)
	}
	if snap.SessionGrants != uint64(sessions) {
		t.Fatalf("session grants = %d, want %d: connections must not lease at all",
			snap.SessionGrants, sessions)
	}
	if snap.BatchedOps != uint64(conns*256) {
		t.Fatalf("batched ops = %d, want %d (every data op through the rings)",
			snap.BatchedOps, conns*256)
	}
	if snap.Batches == 0 || snap.Batches > snap.BatchedOps {
		t.Fatalf("batches = %d for %d ops", snap.Batches, snap.BatchedOps)
	}
}

// TestExecutorSeats pins the connection → executor assignment: a new
// connection takes the executor serving the fewest connections and keeps
// it for its lifetime, every one of its data ops runs there, and a closed
// connection's seat goes to the next one to register.
func TestExecutorSeats(t *testing.T) {
	s, addr, _ := newBatchedServer(t, 4, 2, Config{})
	if len(s.execs) != 2 {
		t.Fatalf("%d executors over 2 shards, want 2", len(s.execs))
	}
	// seats maps each open connection's id to the executor serving it.
	seats := func() map[uint64]int {
		s.mu.Lock()
		defer s.mu.Unlock()
		m := make(map[uint64]int, len(s.conns))
		for c := range s.conns {
			m[c.id] = c.exec.id
		}
		return m
	}
	dial := func() *Client {
		t.Helper()
		c, err := Dial(addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(); err != nil { // answered, so registered: ids follow dial order
			t.Fatal(err)
		}
		return c
	}
	a, b := dial(), dial()
	defer b.Close()
	first := seats()
	if len(first) != 2 || first[1] == first[2] {
		t.Fatalf("two connections seated at executors %v, want one each", first)
	}
	for id, c := range map[uint64]*Client{1: a, 2: b} {
		var before [2]uint64
		for i, e := range s.execs {
			before[i] = e.ops.Load()
		}
		// Keys on both shards: the connection's executor runs them all.
		for sh := range 2 {
			put, _ := c.Put(keyOnShard(s.shards, sh, id<<32), id)
			if err := put.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		for i, e := range s.execs {
			want := uint64(0)
			if i == first[id] {
				want = 2
			}
			if got := e.ops.Load() - before[i]; got != want {
				t.Fatalf("connection %d (executor %d): executor %d ran %d of its ops, want %d", id, first[id], i, got, want)
			}
		}
	}

	a.Close()
	for deadline := time.Now().Add(2 * time.Second); s.active.Load() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("closed connection not reaped")
		}
	}
	c := dial()
	defer c.Close()
	if got := seats(); len(got) != 2 || got[3] != first[1] || got[2] != first[2] {
		t.Fatalf("seats %v after connection 1 (executor %d) closed and 3 dialled, want 3 in its seat", got, first[1])
	}
}

// TestSlowlogQueueStage stalls the executor and checks the slow log
// attributes the wait to the queue stage — the real ring wait, not exec
// (enqueue→dequeue time goes under queue and does not inflate exec).
func TestSlowlogQueueStage(t *testing.T) {
	stall := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(stall) }) }
	defer release()
	s, addr, _ := newBatchedServer(t, 4, 1, Config{
		SlowThreshold: time.Millisecond,
		ExecGate:      func(int) { <-stall },
	})
	c, err := Dial(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ca, _ := c.Put(1, 1)
	c.Flush()
	time.Sleep(10 * time.Millisecond) // the request sits in the ring
	release()
	if err := ca.Wait(); err != nil {
		t.Fatal(err)
	}

	entries := s.SlowLog()
	if len(entries) == 0 {
		t.Fatal("a 10ms ring wait did not reach the slow log")
	}
	e := entries[0]
	queue := e.Stages["queue"]
	exec := e.Stages["exec"]
	if queue < int64(5*time.Millisecond) {
		t.Fatalf("queue stage = %dns, want >= 5ms of ring wait (stages %v)", queue, e.Stages)
	}
	if exec >= queue {
		t.Fatalf("exec %dns >= queue %dns: ring wait folded into exec", exec, queue)
	}
	if e.ServerNs < queue {
		t.Fatalf("server_ns %d below queue stage %d", e.ServerNs, queue)
	}
}

// TestVanishMidBatch is the disconnect economy: a client that
// vanishes with requests still queued on its executor's ring must only retire
// its own pending entries — the executor completes them into the dead
// connection's outbox (discarded by the writer), the ledger stays
// balanced, and the conn slot recycles for the next client.
func TestVanishMidBatch(t *testing.T) {
	stall := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(stall) }) }
	defer release()
	s, addr, _ := newBatchedServer(t, 4, 1, Config{
		ExecGate: func(int) { <-stall },
	})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	const k = 64
	var buf []byte
	for i := uint64(0); i < k; i++ {
		buf = AppendFrame(buf, i+1, OpPut, i, i)
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	// Wait until the reader has enqueued everything, then vanish.
	deadline := time.Now().Add(2 * time.Second)
	for s.sumStripes(func(st *shardStripe) uint64 { return st.reqsRead.Load() }) < k {
		if time.Now().After(deadline) {
			t.Fatalf("server read %d/%d requests", s.sumStripes(func(st *shardStripe) uint64 { return st.reqsRead.Load() }), k)
		}
		time.Sleep(time.Millisecond)
	}
	nc.Close()
	release()

	// The connection can only be reaped after the executor completed its
	// pending entries (inflight drains to zero).
	deadline = time.Now().Add(2 * time.Second)
	for s.active.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("vanished connection not reaped")
		}
		time.Sleep(time.Millisecond)
	}
	snap := s.snapshot()
	if snap.RequestsRead != snap.ResponsesSent {
		t.Fatalf("ledger unbalanced after vanish: read=%d sent=%d", snap.RequestsRead, snap.ResponsesSent)
	}
	if snap.SessionsInUse != 1 {
		t.Fatalf("sessions leased = %d after vanish, want 1 (the executor's)", snap.SessionsInUse)
	}
	for i := range snap.RingDepth {
		if snap.RingDepth[i] != 0 {
			t.Fatalf("ring %d still holds %d entries", i, snap.RingDepth[i])
		}
	}

	// The recycled slot serves the next client.
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, _ := c.Get(3)
	if err := got.Wait(); err != nil || got.Status != StOK || got.Val != 3 {
		t.Fatalf("Get after vanish = %d/%d (%v), want OK/3 (the vanished client's write landed)",
			got.Status, got.Val, err)
	}
}

// TestRingFullBusy pins the backpressure contract on both codecs: a full
// executor ring makes the producer wait RingWait, then answer BUSY — and the
// refusals are visible in the ring_full counter. The bound is in
// requests, not ring nodes: of one 16-request burst to a ring of 8,
// exactly the 8 lowest sequences are enqueued and execute, the 8 highest
// are refused, and the map ends up holding the accepted writes only.
func TestRingFullBusy(t *testing.T) {
	const n, fit = 16, 8
	for _, resp := range []bool{false, true} {
		t.Run(map[bool]string{false: "binary", true: "resp"}[resp], func(t *testing.T) {
			stall := make(chan struct{})
			var once sync.Once
			release := func() { once.Do(func() { close(stall) }) }
			defer release()
			s, addr, respAddr := newBatchedServer(t, 4, 1, Config{
				RingSize: 8,
				RingWait: time.Millisecond,
				ExecGate: func(int) { <-stall },
			})

			// send pipelines the n writes, refused collects their replies (true:
			// BUSY) once the executor runs, get reads key i back.
			var send func()
			var refused func(i int) bool
			var get func(i int) (val string, ok bool)
			if resp {
				c, err := DialRESP(respAddr)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				key := func(i int) string { return "key:" + strconv.Itoa(i) }
				send = func() {
					for i := 0; i < n; i++ {
						c.Send("SET", key(i), strconv.Itoa(i+1))
					}
					c.Flush()
				}
				refused = func(i int) bool {
					v, err := c.Recv()
					busy := v.IsError() && strings.HasPrefix(string(v.Str), "BUSY")
					if err != nil || !busy && string(v.Str) != "OK" {
						t.Fatalf("SET %d = %+v (%v), want +OK or -BUSY", i, v, err)
					}
					return busy
				}
				get = func(i int) (string, bool) {
					v, err := c.Do("GET", key(i))
					if err != nil || v.IsError() {
						t.Fatalf("GET %d = %+v (%v)", i, v, err)
					}
					return string(v.Str), !v.Nil
				}
			} else {
				c, err := Dial(addr, 32)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				var calls []*Call
				send = func() {
					for i := 0; i < n; i++ {
						ca, err := c.Put(uint64(100+i), uint64(i+1))
						if err != nil {
							t.Fatal(err)
						}
						calls = append(calls, ca)
					}
					c.Flush()
				}
				refused = func(i int) bool {
					ca := calls[i]
					if err := ca.Wait(); err != nil || ca.Status != StBusy && ca.Status != StNotFound {
						t.Fatalf("PUT %d: status %d (%v), want NOT_FOUND (fresh key) or BUSY", i, ca.Status, err)
					}
					return ca.Status == StBusy
				}
				get = func(i int) (string, bool) {
					ca, err := c.Get(uint64(100 + i))
					if err != nil {
						t.Fatal(err)
					}
					if err := ca.Wait(); err != nil || ca.Status != StOK && ca.Status != StNotFound {
						t.Fatalf("GET %d: status %d (%v)", i, ca.Status, err)
					}
					return strconv.FormatUint(ca.Val, 10), ca.Status == StOK
				}
			}

			send()
			// 8 fill the ring; the rest must come back BUSY while the executor
			// is stalled. Wait for those refusals before releasing.
			deadline := time.Now().Add(2 * time.Second)
			for s.ringFull.Load() < n-fit {
				if time.Now().After(deadline) {
					t.Fatalf("ring_full = %d, want %d", s.ringFull.Load(), n-fit)
				}
				time.Sleep(time.Millisecond)
			}
			if snap := s.snapshot(); snap.RingDepth[0] != fit || snap.Busy != n-fit {
				t.Fatalf("stalled: ring_depth %v busy %d, want [%d] and %d", snap.RingDepth, snap.Busy, fit, n-fit)
			}
			release()
			for i := 0; i < n; i++ {
				if busy := refused(i); busy != (i >= fit) {
					t.Fatalf("request %d: refused=%v; want the %d lowest sequences served and the rest BUSY", i, busy, fit)
				}
			}
			for i := 0; i < n; i++ {
				if val, ok := get(i); ok != (i < fit) || ok && val != strconv.Itoa(i+1) {
					t.Fatalf("key %d: GET = %q/%v; want applied=%v", i, val, ok, i < fit)
				}
			}
			snap := s.snapshot()
			if snap.RequestsRead != snap.ResponsesSent || snap.BatchedOps != fit+n || snap.RingDepth[0] != 0 {
				t.Fatalf("ledger: read %d sent %d batched %d depth %v", snap.RequestsRead, snap.ResponsesSent, snap.BatchedOps, snap.RingDepth)
			}
		})
	}
}

// TestBatchedTraceEvents drives load with tracing on and SpanSample=1
// and checks the new ring/batch event kinds appear on the ring group's
// recorder, alongside per-request spans on the shard session's ring.
func TestBatchedTraceEvents(t *testing.T) {
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	s, addr, _ := newBatchedServer(t, 4, 1, Config{SpanSample: 1})
	c, err := Dial(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := uint64(0); i < 16; i++ {
		ca, _ := c.Put(i, i)
		if err := ca.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	var enq, deq, batch int
	for _, ev := range s.rings.Manager().TraceRecorder().Events() {
		switch ev.Kind {
		case trace.EvRingEnq:
			enq++
		case trace.EvRingDeq:
			deq++
		case trace.EvBatch:
			batch++
			if trace.RingIndex(ev.Arg) != 0 || trace.RingValue(ev.Arg) == 0 {
				t.Fatalf("exec_batch payload ring=%d size=%d", trace.RingIndex(ev.Arg), trace.RingValue(ev.Arg))
			}
		}
	}
	if enq != 16 || deq != 16 {
		t.Fatalf("ring events enq=%d deq=%d, want 16/16 at SpanSample=1", enq, deq)
	}
	if batch == 0 {
		t.Fatal("no exec_batch events recorded")
	}
	var spans int
	for _, ev := range s.shards.Shard(0).Manager().TraceRecorder().Events() {
		if ev.Kind == trace.EvReqSpan {
			spans++
		}
	}
	if spans != 16 {
		t.Fatalf("executor emitted %d req_span events, want 16", spans)
	}
}

// TestBurstHandoffOrderingAndLedger drives the per-burst hand-off where
// it can go wrong. A registry of one session per shard leaves one
// executor serving both shards and both connections. Connection A
// pipelines, in one write, a burst larger than its window (64) and than
// the 16-request ring, alternating between both shards while the
// executor is stalled: the 16 lowest sequences fill the ring and the rest
// of the window answers BUSY. Connection B writes a burst onto the same
// full ring and vanishes while its reader is still mid-hand-off.
// Responses must come back in request order with BUSY on exactly the
// requests that met the full ring (and, past the window, only where a
// ring wait ran out), the ledger must balance, both conn-table slots
// (MaxConns 2) must recycle, and the STATS and slow-log fields the
// benchmark parses must keep their names and meanings.
func TestBurstHandoffOrderingAndLedger(t *testing.T) {
	stall := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(stall) }) }
	defer release()
	const window, ring, burst, bBurst = 64, 16, 300, 8
	s, addr, _ := newBatchedServer(t, 1, 2, Config{
		Window:        window,
		RingSize:      ring,
		RingWait:      20 * time.Millisecond, // ample for a live executor, finite for the stalled one
		MaxConns:      2,
		SlowThreshold: time.Nanosecond,
		SlowLogSize:   1024,
		ExecGate:      func(int) { <-stall },
	})
	if len(s.execs) != 1 {
		t.Fatalf("%d executors over 2 shards of one session each, want 1", len(s.execs))
	}
	readTotal := func() uint64 {
		return s.sumStripes(func(st *shardStripe) uint64 { return st.reqsRead.Load() })
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	a, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	keys, refused := make([]uint64, burst), make([]bool, burst)
	var out []byte
	for i := range keys {
		keys[i] = keyOnShard(s.shards, i%2, uint64(1000*i))
		out = AppendFrame(out, uint64(i+1), OpPut, keys[i], uint64(i+1))
	}
	if _, err := a.Write(out); err != nil {
		t.Fatal(err)
	}
	// The window admits 64 requests, of which the ring takes 16. The other
	// 48 are refused, and then the reader waits on its window behind the
	// stalled head of line.
	waitFor("48 ring-full refusals", func() bool { return s.ringFull.Load() >= window-ring })
	if got := s.execs[0].depth.Load(); got != ring {
		t.Fatalf("stalled ring holds %d entries, want %d", got, ring)
	}

	b, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	out = out[:0]
	for i := uint64(0); i < bBurst; i++ {
		out = AppendFrame(out, i+1, OpPut, keyOnShard(s.shards, 1, 1<<40+1000*i), i)
	}
	if _, err := b.Write(out); err != nil {
		t.Fatal(err)
	}
	waitFor("B's burst to be read", func() bool { return readTotal() >= window+bBurst })
	b.Close() // vanishes with its reader parked on the full ring
	release()

	fr := newFrameReader(a, maxResponseFrame)
	var busy int
	for i := 0; i < burst; i++ {
		f, err := fr.read()
		if err != nil {
			t.Fatalf("response %d: %v", i+1, err)
		}
		if f.ID != uint64(i+1) {
			t.Fatalf("response %d carries id %d: out of request order", i+1, f.ID)
		}
		switch f.Code {
		case StBusy:
			busy++
			if i < ring {
				t.Fatalf("request %d, queued on the ring, answered BUSY", i+1)
			}
			refused[i] = true // and so must not have been applied
		case StNotFound: // PUT of a fresh key
			if i >= ring && i < window {
				t.Fatalf("request %d met the full ring but was served", i+1)
			}
		default:
			t.Fatalf("response %d: status %d", i+1, f.Code)
		}
	}
	if busy < window-ring || uint64(busy) > s.busyTotal.Load() {
		t.Fatalf("A saw %d BUSY, want at least %d and at most busy_total %d", busy, window-ring, s.busyTotal.Load())
	}
	a.Close()
	waitFor("both connections to be reaped", func() bool { return s.active.Load() == 0 })
	s.mu.Lock()
	free := len(s.freeSlots)
	s.mu.Unlock()
	if free != 2 {
		t.Fatalf("%d free conn slots after both connections closed, want 2", free)
	}

	// Two fresh connections can only both run batched on recycled slots.
	before := s.snapshot()
	c1, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i, k := range keys {
		c := c1
		if i%2 == 1 {
			c = c2
		}
		got, err := c.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Wait(); err != nil {
			t.Fatal(err)
		}
		if applied := got.Status == StOK && got.Val == uint64(i+1); applied == refused[i] || (!applied && got.Status != StNotFound) {
			t.Fatalf("request %d: applied=%v (status %d) but its response said refused=%v", i+1, applied, got.Status, refused[i])
		}
	}
	body, err := c1.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Server map[string]json.RawMessage `json:"server"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	var st struct {
		Read, Sent, Batches, Ops uint64
		Depth                    []int
		ShardOps                 []uint64
	}
	for name, dst := range map[string]any{
		"requests_read": &st.Read, "responses_sent": &st.Sent,
		"exec_batches": &st.Batches, "exec_batched_ops": &st.Ops, "ring_depth": &st.Depth,
		"shard_ops": &st.ShardOps,
	} {
		raw, ok := doc.Server[name]
		if !ok {
			t.Fatalf("STATS lost the %q field", name)
		}
		if err := json.Unmarshal(raw, dst); err != nil {
			t.Fatalf("STATS %q: %v", name, err)
		}
	}
	// The STATS request itself is read but not yet answered in its own body.
	if st.Read != st.Sent+1 || st.Read != burst+bBurst+burst+1 {
		t.Fatalf("ledger: requests_read %d responses_sent %d, want %d and one less", st.Read, st.Sent, burst+bBurst+burst+1)
	}
	if want := st.Read - 1 - s.busyTotal.Load(); st.Ops != want {
		t.Fatalf("exec_batched_ops %d, want %d (every data request the rings accepted)", st.Ops, want)
	}
	// shard_ops counts where the keys were routed, BUSY refusals included:
	// every data request, not only those the ring accepted.
	var routed uint64
	for _, n := range st.ShardOps {
		routed += n
	}
	if len(st.ShardOps) != 2 || routed != st.Read-1 || routed == st.Ops {
		t.Fatalf("shard_ops %v (sum %d), want 2 shards summing to the %d data requests read, BUSY refusals included (%d executed)",
			st.ShardOps, routed, st.Read-1, st.Ops)
	}
	if st.Ops-before.BatchedOps != burst {
		t.Fatalf("the fresh connections ran %d ops through the rings, want %d: a conn slot did not recycle", st.Ops-before.BatchedOps, burst)
	}
	if st.Batches == 0 || st.Batches > st.Ops || len(st.Depth) != 1 || st.Depth[0] != 0 {
		t.Fatalf("exec_batches %d for %d ops, ring_depth %v", st.Batches, st.Ops, st.Depth)
	}

	// Slow log (threshold 1ns records everything): every stage that took
	// time is present under its name, they sum to server_ns without the
	// client-owned read stage, and the stalled requests' wait is queue.
	var sawStall bool
	entries := s.SlowLog()
	if len(entries) == 0 {
		t.Fatal("empty slow log at a 1ns threshold")
	}
	for _, e := range entries {
		var sum int64
		for name, ns := range e.Stages {
			switch name {
			case "read":
			case "route", "exec", "queue":
				sum += ns
			default:
				t.Fatalf("slow-log entry has stage %q in batched mode: %+v", name, e)
			}
		}
		if sum != e.ServerNs || e.Stages["exec"] == 0 {
			t.Fatalf("stages %v do not explain server_ns %d", e.Stages, e.ServerNs)
		}
		if e.Stages["queue"] >= int64(10*time.Millisecond) {
			sawStall = e.Stages["exec"] < e.Stages["queue"]
		}
	}
	if !sawStall {
		t.Fatal("no slow-log entry attributes the stalled executor's wait to the queue stage")
	}
}

// readReplies reads n responses off nc and fails unless response i
// carries id first+i: the wire order is the request order.
func readReplies(t *testing.T, nc net.Conn, first uint64, n int) []frame {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second)) // a lost request must fail, not hang
	fr := newFrameReader(nc, maxResponseFrame)
	out := make([]frame, n)
	for i := range out {
		f, err := fr.read()
		if err != nil {
			t.Fatalf("response %d of %d: %v", i+1, n, err)
		}
		if f.ID != first+uint64(i) {
			t.Fatalf("response %d carries id %d, want %d: out of request order", i+1, f.ID, first+uint64(i))
		}
		f.Body = append([]byte(nil), f.Body...) // Body aliases the read buffer
		out[i] = f
	}
	return out
}

func TestLowestBits(t *testing.T) {
	for _, tc := range []struct {
		mask uint64
		n    int
		want uint64
	}{
		{0, 0, 0},
		{0, 3, 0},
		{0b1011, 0, 0},
		{0b1011, 1, 0b0001},
		{0b1011, 2, 0b0011},
		{0b1011, 3, 0b1011},
		{0b1011, 64, 0b1011},
		{1 << 63, 1, 1 << 63},
		{1<<63 | 1, 1, 1},
		{1<<63 | 1<<62 | 1<<5, 2, 1<<62 | 1<<5},
		{^uint64(0), 63, ^uint64(0) >> 1},
		{^uint64(0), 64, ^uint64(0)},
	} {
		if got := lowestBits(tc.mask, tc.n); got != tc.want {
			t.Errorf("lowestBits(%#b, %d) = %#b, want %#b", tc.mask, tc.n, got, tc.want)
		}
	}
}

// TestProtocolOpsInsideBurst pipelines, in one write, a burst in which
// PING, STATS and malformed frames sit between the data requests. They
// are answered by the reader but take outbox sequences, so the shard
// masks have gaps and a burst closes on its sequence span, not its
// request count: a request shifted past bit 63 would never execute and
// its response never arrive.
func TestProtocolOpsInsideBurst(t *testing.T) {
	s, addr, _ := newBatchedServer(t, 4, 2, Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	const total = 300
	var out []byte
	var puts, pings, stats, bad uint64
	want := make([]byte, total) // expected status per request
	kind := make([]byte, total)
	for i := 0; i < total; i++ {
		id := uint64(i + 1)
		switch {
		case i%7 == 3:
			out, kind[i], want[i] = AppendFrame(out, id, OpPing), OpPing, StOK
			pings++
		case i%41 == 5:
			out, kind[i], want[i] = AppendFrame(out, id, OpStats), OpStats, StOK
			stats++
		case i%13 == 6: // GET with a PUT's body, or an opcode nobody knows
			code := byte(OpGet)
			if i%2 == 0 {
				code = 99
			}
			out, want[i] = AppendFrame(out, id, code, 1, 2), StBadRequest
			bad++
		default:
			out, kind[i], want[i] = AppendFrame(out, id, OpPut, keyOnShard(s.shards, i%2, uint64(1000*i)), id), OpPut, StNotFound
			puts++
		}
	}
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	for i, f := range readReplies(t, nc, 1, total) {
		if f.Code != want[i] || (kind[i] == OpStats) != (len(f.Body) > 8) {
			t.Fatalf("response %d (request kind %d): status %d with a %d-byte body, want status %d",
				i+1, kind[i], f.Code, len(f.Body), want[i])
		}
	}
	snap := s.snapshot()
	if snap.RequestsRead != total || snap.ResponsesSent != total || snap.BadRequests != bad {
		t.Fatalf("ledger: read %d sent %d bad %d, want %d/%d/%d", snap.RequestsRead, snap.ResponsesSent, snap.BadRequests, total, total, bad)
	}
	if snap.BatchedOps != puts || snap.ShardOps[0]+snap.ShardOps[1] != puts {
		t.Fatalf("exec_batched_ops %d shard_ops %v, want %d data requests", snap.BatchedOps, snap.ShardOps, puts)
	}
	// A node spans at most 64 sequences; how many reads delivered the
	// burst is the kernel's business.
	if snap.RingNodes < (puts+63)/64 || snap.RingNodes > puts {
		t.Fatalf("ring_nodes %d for %d requests", snap.RingNodes, puts)
	}
	c := NewClient(nc, 0)
	for i := 0; i < total; i++ {
		if kind[i] != OpPut {
			continue
		}
		got, err := c.Get(keyOnShard(s.shards, i%2, uint64(1000*i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Wait(); err != nil || got.Status != StOK || got.Val != uint64(i+1) {
			t.Fatalf("request %d was answered but not applied: GET = %d/%d (%v)", i+1, got.Status, got.Val, err)
		}
	}
}

// TestSmallOddWindow runs bursts far larger than a window that is
// neither 64 nor a power of two: the burst must close on the window (12
// live sequences in 16 slots), and the slot a request is staged in must
// not be reused before its response left.
func TestSmallOddWindow(t *testing.T) {
	s, addr, _ := newBatchedServer(t, 4, 2, Config{Window: 12})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	const burst, rounds = 200, 3
	key := func(i int) uint64 { return keyOnShard(s.shards, i%2, uint64(1000*i)) }
	id := uint64(1)
	for r := uint64(1); r <= rounds; r++ {
		var out []byte
		for i := 0; i < burst; i++ {
			out = AppendFrame(out, id+uint64(2*i), OpPut, key(i), r<<32|uint64(i))
			out = AppendFrame(out, id+uint64(2*i+1), OpGet, key(i))
		}
		// The server stops reading at 12 unwritten responses, so the write
		// and the read must overlap.
		werr := make(chan error, 1)
		go func() { _, err := nc.Write(out); werr <- err }()
		for i, f := range readReplies(t, nc, id, 2*burst) {
			if i%2 == 1 && (f.Code != StOK || len(f.Body) != 8 || f.word(0) != r<<32|uint64(i/2)) {
				t.Fatalf("round %d: GET %d = status %d body %x, want the value its PUT just wrote", r, i/2, f.Code, f.Body)
			}
		}
		if err := <-werr; err != nil {
			t.Fatal(err)
		}
		id += 2 * burst
	}
	snap := s.snapshot()
	if want := uint64(2 * burst * rounds); snap.RequestsRead != want || snap.ResponsesSent != want || snap.BatchedOps != want {
		t.Fatalf("ledger: read %d sent %d batched %d, want %d each", snap.RequestsRead, snap.ResponsesSent, snap.BatchedOps, want)
	}
	if snap.RingNodes < snap.BatchedOps/12 {
		t.Fatalf("ring_nodes %d for %d requests: a node outgrew the 12-request window", snap.RingNodes, snap.BatchedOps)
	}
}

// TestConcurrentBurstsLedger runs five connections against two shards at
// once: three pipeline binary bursts that span both and check every
// reply, one does the same over RESP with variadic commands mixed in, the
// fifth writes a burst and vanishes mid-frame, over and over. Each
// connection's nodes interleave with the others' on the rings; order,
// values and the ledger must hold — every data op through the rings,
// whatever the codec — nothing may stay in flight, and every conn slot
// must recycle (MaxConns 5: the vanishing client is only served on the
// slot its predecessor gave back).
func TestConcurrentBurstsLedger(t *testing.T) {
	const conns, rounds, burst, multi = 4, 6, 150, 8
	s, addr, respAddr := newBatchedServer(t, 4, 2, Config{Window: 96, MaxConns: conns + 1})
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	var wg sync.WaitGroup
	// The RESP connection: SET and GET every key, then count them with one
	// EXISTS and delete them with one DEL of 8 keys each.
	rc, err := DialRESP(respAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if v, err := rc.Do("PING"); err != nil || string(v.Str) != "PONG" { // registered before the others dial
		t.Fatalf("PING = %+v (%v)", v, err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 1; r <= rounds; r++ {
			val := strconv.Itoa(r)
			some := make([]string, 1, 1+multi)
			for i := 0; i < burst; i++ {
				key := "rk:" + strconv.Itoa(i)
				rc.Send("SET", key, val)
				rc.Send("GET", key)
				if i < multi {
					some = append(some, key)
				}
			}
			some[0] = "EXISTS"
			rc.Send(some...)
			some[0] = "DEL"
			rc.Send(some...)
			for i := 0; i < 2*burst+2; i++ {
				v, err := rc.Recv()
				want := [...]string{"OK", val}[i%2]
				if i >= 2*burst {
					want = ""
				}
				if err != nil || string(v.Str) != want || (i >= 2*burst && v.Int != multi) {
					t.Errorf("RESP round %d reply %d: %+v (%v), want %q", r, i, v, err, want)
					return
				}
			}
		}
	}()
	ncs := make([]net.Conn, conns-1)
	for w := range ncs {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		ncs[w] = nc
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := func(i int) uint64 { return keyOnShard(s.shards, i%2, uint64(w)<<40+uint64(1000*i)) }
			id := uint64(1)
			for r := uint64(1); r <= rounds; r++ {
				var out []byte
				for i := 0; i < burst; i++ {
					out = AppendFrame(out, id+uint64(2*i), OpPut, key(i), r<<32|uint64(i))
					out = AppendFrame(out, id+uint64(2*i+1), OpGet, key(i))
				}
				werr := make(chan error, 1)
				go func() { _, err := nc.Write(out); werr <- err }()
				nc.SetReadDeadline(time.Now().Add(10 * time.Second))
				fr := newFrameReader(nc, maxResponseFrame)
				for i := 0; i < 2*burst; i++ {
					f, err := fr.read()
					if err != nil || f.ID != id+uint64(i) {
						t.Errorf("conn %d round %d response %d: id %d (%v)", w, r, i, f.ID, err)
						return
					}
					if i%2 == 1 && (f.Code != StOK || f.word(0) != r<<32|uint64(i/2)) {
						t.Errorf("conn %d round %d: GET %d = status %d", w, r, i/2, f.Code)
						return
					}
				}
				if err := <-werr; err != nil {
					t.Error(err)
					return
				}
				id += 2 * burst
			}
		}(w)
	}
	// The last client, on the main goroutine: write most of a burst,
	// vanish, and come back once the server has reaped the connection —
	// only then is the fifth conn slot free again.
	for r := 0; r < rounds; r++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		for i := 0; i < burst; i++ {
			out = AppendFrame(out, uint64(i+1), OpPut, keyOnShard(s.shards, i%2, 1<<50+uint64(1000*i)), 1)
		}
		nc.Write(out[:len(out)-5]) // the last frame torn
		nc.Close()
		waitFor("the vanished connection to be accepted and reaped", func() bool {
			return s.connsTotal.Load() == uint64(conns+1+r) && s.active.Load() == conns
		})
	}
	wg.Wait()
	// The executor settles a node after publishing its last response, so
	// the count trails the reply the client just read by a moment.
	waitFor("in-flight counts to settle", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for c := range s.conns {
			if c.inflight.Load() != 0 {
				return false
			}
		}
		return true
	})
	for _, nc := range ncs {
		nc.Close()
	}
	rc.Close()
	waitFor("every connection to be reaped", func() bool { return s.active.Load() == 0 })
	snap := s.snapshot()
	// A variadic command is one request and one response but a data op per
	// key; the PING is neither staged nor executed.
	binary := uint64((conns-1)*rounds*2*burst + rounds*(burst-1))
	reqs, ops := binary+rounds*(2*burst+2)+1, binary+rounds*(2*burst+2*multi)
	if snap.RequestsRead != reqs || snap.ResponsesSent != reqs || snap.BatchedOps != ops {
		t.Fatalf("ledger: requests_read %d responses_sent %d, want %d; exec_batched_ops %d, want %d (every data op read)",
			snap.RequestsRead, snap.ResponsesSent, reqs, snap.BatchedOps, ops)
	}
	if snap.RingDepth[0] != 0 || snap.RingDepth[1] != 0 || snap.Busy != 0 {
		t.Fatalf("ring_depth %v busy %d after the load", snap.RingDepth, snap.Busy)
	}
	s.mu.Lock()
	free := len(s.freeSlots)
	s.mu.Unlock()
	if free != conns+1 {
		t.Fatalf("%d free conn slots, want %d", free, conns+1)
	}
}
