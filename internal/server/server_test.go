package server

import (
	"encoding/json"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvmap"
)

// startTestServer serves cfg on two loopback listeners, one per wire
// protocol, until the test ends.
func startTestServer(t *testing.T, cfg Config) (s *Server, addr, respAddr string) {
	t.Helper()
	s = New(cfg)
	done := make(chan error, 2)
	for _, serve := range []func(net.Listener) error{s.Serve, s.ServeRESP} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr, respAddr = respAddr, ln.Addr().String()
		go func() { done <- serve(ln) }()
	}
	t.Cleanup(func() {
		s.Shutdown()
		for i := 0; i < cap(done); i++ {
			if err := <-done; err != nil {
				t.Errorf("Serve: %v", err)
			}
		}
	})
	return s, addr, respAddr
}

func newTestServer(t *testing.T, threads int, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Map = kvmap.New(core.Config{MaxThreads: threads, Capacity: 1 << 16}, 1<<14)
	s, addr, _ := startTestServer(t, cfg)
	return s, addr
}

func TestRoundTrip(t *testing.T) {
	_, addr := newTestServer(t, 2, Config{})
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	put, _ := c.Put(1, 100)
	if err := put.Wait(); err != nil || put.Status != StNotFound {
		t.Fatalf("first Put: err=%v status=%d, want NOT_FOUND (no previous)", err, put.Status)
	}
	get, _ := c.Get(1)
	if err := get.Wait(); err != nil || get.Status != StOK || get.Val != 100 {
		t.Fatalf("Get = %d/%d (%v), want OK/100", get.Status, get.Val, err)
	}
	cas, _ := c.CAS(1, 100, 200)
	if err := cas.Wait(); err != nil || cas.Status != StOK {
		t.Fatalf("CAS = %d (%v), want OK", cas.Status, err)
	}
	cas2, _ := c.CAS(1, 100, 300)
	if err := cas2.Wait(); err != nil || cas2.Status != StCASMismatch {
		t.Fatalf("stale CAS = %d (%v), want CAS_MISMATCH", cas2.Status, err)
	}
	del, _ := c.Del(1)
	if err := del.Wait(); err != nil || del.Status != StOK || del.Val != 200 {
		t.Fatalf("Del = %d/%d (%v), want OK/200", del.Status, del.Val, err)
	}
	miss, _ := c.Get(1)
	if err := miss.Wait(); err != nil || miss.Status != StNotFound {
		t.Fatalf("Get after Del = %d (%v), want NOT_FOUND", miss.Status, err)
	}

	body, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Server Snapshot `json:"server"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("STATS body %q: %v", body, err)
	}
	if snap.Server.SessionsInUse != 1 || snap.Server.SessionsCap != 2 {
		t.Fatalf("sessions = %d/%d, want 1/2", snap.Server.SessionsInUse, snap.Server.SessionsCap)
	}
}

// TestPipelining issues a deep pipeline before waiting and checks every
// response resolves correctly and in order.
func TestPipelining(t *testing.T) {
	_, addr := newTestServer(t, 2, Config{Window: 64})
	c, err := Dial(addr, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 2000
	calls := make([]*Call, 0, n)
	for i := 0; i < n; i++ {
		ca, err := c.Put(uint64(i%97), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, ca)
		if len(calls) == cap(calls) || i%64 == 63 {
			c.Flush()
		}
	}
	for i, ca := range calls {
		if err := ca.Wait(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if ca.Status != StOK && ca.Status != StNotFound {
			t.Fatalf("call %d: status %d", i, ca.Status)
		}
	}
}

// TestGracefulDrain shuts the server down in the middle of a pipelined
// load and asserts the drain contract: the client sees GOAWAY, every
// request issued before (and racing with) the drain gets its response,
// nothing in flight is dropped, and no connection is force-closed.
func TestGracefulDrain(t *testing.T) {
	s, addr := newTestServer(t, 4, Config{Window: 128, DrainTimeout: 5 * time.Second})

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
				ca, err := c.Put(uint64(w)<<32|uint64(i%1000), uint64(i))
				if err != nil {
					if errors.Is(err, ErrGoAway) {
						break // drain announced: stop issuing
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
			// Drain phase: every outstanding call must resolve.
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
	time.Sleep(50 * time.Millisecond) // let the pipelines build up steam
	forced := s.Shutdown()
	wg.Wait()

	if forced != 0 {
		t.Fatalf("%d connections force-closed; want graceful drain", forced)
	}
	if issued.Load() == 0 {
		t.Fatal("no load issued before drain")
	}
	if issued.Load() != resolved.Load() {
		t.Fatalf("issued %d, resolved %d: in-flight requests dropped", issued.Load(), resolved.Load())
	}
	if got := s.sumStripes(func(st *shardStripe) uint64 { return st.reqsRead.Load() }); got < resolved.Load() {
		t.Fatalf("server read %d < client resolved %d", got, resolved.Load())
	}
	if s.cfg.Map.Manager().Lessor().Leased() != 0 {
		t.Fatalf("%d leases outstanding after drain", s.cfg.Map.Manager().Lessor().Leased())
	}
	t.Logf("drained cleanly: %d requests resolved across %d clients", resolved.Load(), clients)
}

// TestBadRequest checks malformed frames get a typed error, not a cut
// connection.
func TestBadRequest(t *testing.T) {
	_, addr := newTestServer(t, 1, Config{})
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ca, err := c.send(99) // unknown opcode
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Wait(); err != nil || ca.Status != StBadRequest {
		t.Fatalf("unknown op = %d (%v), want BAD_REQUEST", ca.Status, err)
	}
	if err := c.Ping(); err != nil { // connection survives
		t.Fatal(err)
	}
}
