package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvmap"
)

// newShardedTestServer serves a sharded map and returns the binary
// listener's address.
func newShardedTestServer(t *testing.T, threads, shards int, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Shards = kvmap.NewSharded(core.Config{MaxThreads: threads, Capacity: 1 << 16}, 1<<14, shards)
	s, addr, _ := startTestServer(t, cfg)
	return s, addr
}

// keyOnShard finds a key the router sends to the wanted shard.
func keyOnShard(sh *kvmap.Sharded, want int, salt uint64) uint64 {
	for k := salt; ; k++ {
		if sh.ShardIndex(k) == want {
			return k
		}
	}
}

// TestTruncatedFrame cuts a connection mid-frame and checks the server
// survives: the half-read pipeline dies, the next connection is served.
func TestTruncatedFrame(t *testing.T) {
	s, addr := newShardedTestServer(t, 2, 1, Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// A valid header announcing 17 bytes, followed by only 5 and a close.
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, 17)
	b = append(b, 1, 2, 3, 4, 5)
	nc.Write(b)
	nc.Close()

	deadline := time.Now().Add(time.Second)
	for s.active.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("truncated connection not reaped")
		}
		time.Sleep(time.Millisecond)
	}
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("server unhealthy after truncated frame: %v", err)
	}
}

// TestFrameTooLargeTypedError is the regression test for the bounded
// frame reader: a hostile length prefix must get the typed FRAME_TOO_BIG
// response and a cut connection — not an attempted multi-gigabyte
// allocation, not a silent close.
func TestFrameTooLargeTypedError(t *testing.T) {
	_, addr := newShardedTestServer(t, 2, 1, Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, 0xFFFFFF00) // ~4 GiB body
	if _, err := nc.Write(b); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(nc, maxResponseFrame)
	f, err := fr.read()
	if err != nil {
		t.Fatalf("no typed response before close: %v", err)
	}
	if f.Code != StFrameTooBig || f.ID != 0 {
		t.Fatalf("response = id %d code %d, want id 0 FRAME_TOO_BIG", f.ID, f.Code)
	}
	if _, err := fr.read(); err == nil {
		t.Fatal("connection survived a hostile length prefix")
	}
}

// TestFrameReaderLimitIsTyped checks the reader error wraps
// ErrFrameTooLarge (so callers can switch on it) and fires before any
// body read.
func TestFrameReaderLimitIsTyped(t *testing.T) {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, maxRequestFrame+1)
	r, w := net.Pipe()
	go func() { w.Write(b) }()
	fr := newFrameReader(r, maxRequestFrame)
	if _, err := fr.read(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read = %v, want ErrFrameTooLarge", err)
	}
	r.Close()
	w.Close()
}

// TestPipelinedCASOrderingAcrossShards interleaves CAS chains on keys
// homed on different shards in one deep pipeline and checks every
// response arrives in request order with the value the order implies.
// This is the router's ordering contract: routing is per-request, but
// execution stays serial per connection, so cross-shard interleavings
// cannot reorder a connection's effects.
func TestPipelinedCASOrderingAcrossShards(t *testing.T) {
	s, addr := newShardedTestServer(t, 8, 4, Config{Window: 256})
	keys := make([]uint64, 4)
	for i := range keys {
		keys[i] = keyOnShard(s.shards, i, uint64(1000*i+1))
	}
	c, err := Dial(addr, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type expect struct {
		ca     *Call
		status byte
		val    uint64
		what   string
	}
	var exp []expect
	push := func(ca *Call, st byte, val uint64, what string) {
		exp = append(exp, expect{ca, st, val, what})
	}
	// Round-robin across shards: each key runs Put(0), then CAS 0→1→2→…;
	// a stale CAS (old value already overwritten) is woven in every round.
	const rounds = 50
	for r := uint64(0); r < rounds; r++ {
		for _, k := range keys {
			if r == 0 {
				ca, _ := c.Put(k, 0)
				push(ca, StNotFound, 0, "initial put")
				continue
			}
			ca, _ := c.CAS(k, r-1, r)
			push(ca, StOK, 0, "advancing cas")
			stale, _ := c.CAS(k, r-1, 999)
			push(stale, StCASMismatch, 0, "stale cas")
		}
		// Push each round onto the wire so the in-flight window drains;
		// responses are still only checked after the whole stream is queued.
		c.Flush()
	}
	for _, k := range keys {
		ca, _ := c.Get(k)
		push(ca, StOK, rounds-1, "final get")
	}
	c.Flush()
	for i, e := range exp {
		if err := e.ca.Wait(); err != nil {
			t.Fatalf("call %d (%s): %v", i, e.what, err)
		}
		if e.ca.Status != e.status {
			t.Fatalf("call %d (%s): status %d, want %d", i, e.what, e.ca.Status, e.status)
		}
		if e.what == "final get" && e.ca.Val != e.val {
			t.Fatalf("call %d (%s): val %d, want %d", i, e.what, e.ca.Val, e.val)
		}
	}
	// Every shard must have executed its quarter of the stream.
	for i := range s.stripes {
		if s.stripes[i].ops.Load() == 0 {
			t.Fatalf("shard %d saw no ops — router sent everything elsewhere", i)
		}
	}
}

// TestShardedGracefulDrain runs pipelined cross-shard load, shuts down
// mid-stream, and checks the drain contract shard-by-shard: nothing
// dropped, requests_read == responses_sent, and in every shard each
// executor's one session granted and released.
func TestShardedGracefulDrain(t *testing.T) {
	s, addr := newShardedTestServer(t, 8, 4, Config{Window: 128, DrainTimeout: 5 * time.Second})

	const clients = 4
	var issued, resolved atomic.Uint64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr, 128)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			<-start
			var calls []*Call
			for i := 0; ; i++ {
				// Stride the keyspace so every client hits all four shards.
				ca, err := c.Put(uint64(w)<<32|uint64(i%4096), uint64(i))
				if err != nil {
					if errors.Is(err, ErrGoAway) {
						break
					}
					t.Errorf("client %d: %v", w, err)
					return
				}
				issued.Add(1)
				calls = append(calls, ca)
				if i%32 == 0 {
					c.Flush()
				}
			}
			for _, ca := range calls {
				if err := ca.Wait(); err != nil {
					t.Errorf("client %d: dropped in-flight call: %v", w, err)
					return
				}
				resolved.Add(1)
			}
		}(w)
	}
	close(start)
	time.Sleep(50 * time.Millisecond)
	forced := s.Shutdown()
	wg.Wait()

	if forced != 0 {
		t.Fatalf("%d connections force-closed; want graceful drain", forced)
	}
	if issued.Load() == 0 || issued.Load() != resolved.Load() {
		t.Fatalf("issued %d resolved %d", issued.Load(), resolved.Load())
	}
	snap := s.snapshot()
	if snap.RequestsRead != snap.ResponsesSent {
		t.Fatalf("requests_read=%d != responses_sent=%d", snap.RequestsRead, snap.ResponsesSent)
	}
	if snap.SessionsInUse != 0 {
		t.Fatalf("%d leases still out after drain", snap.SessionsInUse)
	}
	for i := 0; i < s.shards.NumShards(); i++ {
		l := s.shards.Shard(i).Manager().Lessor()
		if n := l.Leased(); n != 0 {
			t.Fatalf("shard %d: %d leases outstanding after drain", i, n)
		}
		if g := l.Grants(); g != uint64(len(s.execs)) {
			t.Fatalf("shard %d: %d leases granted, want one per executor (%d)", i, g, len(s.execs))
		}
	}
	for _, e := range s.execs {
		for i := range e.shards {
			if e.shards[i].sess != nil {
				t.Fatalf("executor %d still holds its shard %d session after drain", e.id, i)
			}
		}
	}
	active := 0
	for _, n := range snap.ShardOps {
		if n > 0 {
			active++
		}
	}
	if active < 4 {
		t.Fatalf("only %d shards saw traffic during drain test (ops %v)", active, snap.ShardOps)
	}
}

// TestShardedStats sanity-checks the STATS document's sharded fields.
func TestShardedStats(t *testing.T) {
	_, addr := newShardedTestServer(t, 4, 4, Config{})
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for k := uint64(0); k < 64; k++ {
		ca, _ := c.Put(k, k)
		if err := ca.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	body, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Server Snapshot          `json:"server"`
		Shards []json.RawMessage `json:"map_shards"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("STATS %q: %v", body, err)
	}
	if doc.Server.Shards != 4 || len(doc.Server.ShardOps) != 4 || len(doc.Shards) != 4 {
		t.Fatalf("sharded stats = %+v (%d shard stat blocks)", doc.Server, len(doc.Shards))
	}
	if doc.Server.SessionsCap != 16 {
		t.Fatalf("sessions_cap = %d, want 4 shards x 4 threads = 16", doc.Server.SessionsCap)
	}
	var total uint64
	for _, n := range doc.Server.ShardOps {
		total += n
	}
	if total != 64 {
		t.Fatalf("shard ops sum = %d, want 64 (%v)", total, doc.Server.ShardOps)
	}
}

// TestClientStatsOversizeGuard pins the client-side reader limit: a
// response frame within maxResponseFrame passes (STATS), and the typed
// limit error surfaces when the limit is artificially tiny.
func TestClientStatsOversizeGuard(t *testing.T) {
	_, addr := newShardedTestServer(t, 2, 1, Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(AppendFrame(nil, 1, OpStats)); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(nc, 16) // absurdly small on purpose
	if _, err := fr.read(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("tiny-limit read = %v, want ErrFrameTooLarge", err)
	}
	_ = io.Discard
}
