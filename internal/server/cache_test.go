package server

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvmap"
	"repro/internal/lease"
	"repro/internal/oaerr"
	"repro/internal/ttlcache"
)

// TestStatusSentinelParity pins the status-code ↔ sentinel table:
// every status round-trips through SentinelOf → StatusFor (up to the
// documented StGoAway → StClosed fold), and the package's own error
// values classify onto the right codes.
func TestStatusSentinelParity(t *testing.T) {
	for st := uint8(StOK); st <= StFrameTooBig; st++ {
		want := st
		if st == StGoAway {
			want = StClosed // both mean "server going away"
		}
		if got := StatusFor(SentinelOf(st)); got != want {
			t.Errorf("status %d: StatusFor(SentinelOf) = %d, want %d", st, got, want)
		}
	}
	if SentinelOf(StOK) != nil {
		t.Error("SentinelOf(StOK) != nil")
	}
	// The listener errors fold into the shared sentinel set.
	if !errors.Is(ErrRESPProtocol, oaerr.ErrBadRequest) {
		t.Error("ErrRESPProtocol does not wrap oaerr.ErrBadRequest")
	}
	if StatusFor(ErrRESPProtocol) != StBadRequest {
		t.Error("ErrRESPProtocol does not classify as StBadRequest")
	}
	if StatusFor(ErrFrameTooLarge) != StFrameTooBig {
		t.Error("ErrFrameTooLarge does not classify as StFrameTooBig")
	}
	if StatusFor(lease.ErrCapacityExhausted) != StCapacity {
		t.Error("ErrCapacityExhausted does not classify as StCapacity")
	}
	// Unknown statuses and unknown errors both land on BAD_REQUEST.
	if StatusFor(SentinelOf(200)) != StBadRequest {
		t.Error("unknown status does not round-trip to StBadRequest")
	}
}

// newRESPCacheServer serves the RESP listener with the TTL/LRU cache
// layer over a sharded map, on a frozen test clock advanced via the
// returned atomic (milliseconds).
func newRESPCacheServer(t *testing.T, capacity, maxLive int) (*ttlcache.Sharded, *atomic.Int64, string) {
	t.Helper()
	sh := kvmap.NewSharded(core.Config{MaxThreads: 4, Capacity: capacity}, capacity/2, 2)
	clock := new(atomic.Int64)
	clock.Store(1)
	cache := ttlcache.OverSharded(sh, ttlcache.Options{
		MaxLive: maxLive,
		NowMs:   clock.Load, // no sweeper: expiry must be fully lazy
	})
	t.Cleanup(cache.Close) // after the server's own cleanup
	_, _, addr := startTestServer(t, Config{Cache: cache})
	return cache, clock, addr
}

// TestSweeperBesideExecutors pins the slot the executors leave free: with
// as many shards as registry sessions, the server runs one executor fewer
// than it has shards, so every shard's background sweeper still leases a
// session and sweeps.
func TestSweeperBesideExecutors(t *testing.T) {
	sh := kvmap.NewSharded(core.Config{MaxThreads: 2, Capacity: 1 << 12}, 1<<10, 2)
	cache := ttlcache.OverSharded(sh, ttlcache.Options{SweepInterval: time.Millisecond})
	t.Cleanup(cache.Close) // after the server's own cleanup
	s, addr, respAddr := startTestServer(t, Config{Cache: cache})
	if len(s.execs) != 1 {
		t.Fatalf("%d executors over 2 shards of 2 sessions each, want 1", len(s.execs))
	}
	// Traffic on both listeners, so the sweeps run beside served requests
	// (and both Serve loops are up before the cleanup shuts them down).
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rc, err := DialRESP(respAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if v, err := rc.Do("SET", "k", "v"); err != nil || string(v.Str) != "OK" {
		t.Fatalf("SET = %+v (%v)", v, err)
	}
	for i := range sh.NumShards() {
		for deadline := time.Now().Add(2 * time.Second); cache.Cache(i).Stats().Sweeps == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d: no background sweep in 2s beside %d executor sessions of %d",
					i, sh.Shard(i).Manager().Lessor().Leased(), sh.Shard(i).Manager().Lessor().Cap())
			}
		}
	}
}

// TestRESPCacheTTL drives SETEX/EXPIRE/TTL and lazy expiry end to end
// over the wire, with the clock frozen so every deadline is exact.
func TestRESPCacheTTL(t *testing.T) {
	cache, clock, addr := newRESPCacheServer(t, 1<<14, 0)
	c, err := DialRESP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if v, err := c.Do("SETEX", "k", "5", "val"); err != nil || string(v.Str) != "OK" {
		t.Fatalf("SETEX = %+v (%v)", v, err)
	}
	if v, _ := c.Do("GET", "k"); string(v.Str) != "val" {
		t.Fatalf("GET = %+v, want val", v)
	}
	if v, _ := c.Do("TTL", "k"); v.Int != 5 {
		t.Fatalf("TTL = %d, want 5", v.Int)
	}
	// A plain SET has no default TTL here: TTL answers -1.
	if v, _ := c.Do("SET", "plain", "x"); string(v.Str) != "OK" {
		t.Fatalf("SET = %+v", v)
	}
	if v, _ := c.Do("TTL", "plain"); v.Int != -1 {
		t.Fatalf("TTL plain = %d, want -1", v.Int)
	}
	// EXPIRE arms a deadline on a live key; :0 for a missing one.
	if v, _ := c.Do("EXPIRE", "plain", "3"); v.Int != 1 {
		t.Fatalf("EXPIRE plain = %d, want 1", v.Int)
	}
	if v, _ := c.Do("EXPIRE", "missing", "3"); v.Int != 0 {
		t.Fatalf("EXPIRE missing = %d, want 0", v.Int)
	}
	if v, _ := c.Do("TTL", "plain"); v.Int != 3 {
		t.Fatalf("TTL plain after EXPIRE = %d, want 3", v.Int)
	}

	// Advance past plain's deadline but not k's: expiry is per key and
	// linearizes at the deadline instant, no sweeper involved.
	clock.Add(4_000)
	if v, _ := c.Do("GET", "plain"); !v.Nil {
		t.Fatalf("GET plain after deadline = %+v, want nil", v)
	}
	if v, _ := c.Do("TTL", "plain"); v.Int != -2 {
		t.Fatalf("TTL plain after deadline = %d, want -2", v.Int)
	}
	if v, _ := c.Do("GET", "k"); string(v.Str) != "val" {
		t.Fatalf("GET k at t+4s = %+v, want val (deadline t+5s)", v)
	}
	if v, _ := c.Do("TTL", "k"); v.Int != 1 {
		t.Fatalf("TTL k at t+4s = %d, want 1", v.Int)
	}
	clock.Add(1_001)
	if v, _ := c.Do("GET", "k"); !v.Nil {
		t.Fatalf("GET k past deadline = %+v, want nil", v)
	}
	if v, _ := c.Do("EXISTS", "k"); v.Int != 0 {
		t.Fatalf("EXISTS k past deadline = %d, want 0", v.Int)
	}
	if st := cache.Stats(); st.Expired < 2 {
		t.Fatalf("expired = %d, want >= 2 (%+v)", st.Expired, st)
	}

	// Argument validation.
	if v, _ := c.Do("SETEX", "k", "zero", "v"); !v.IsError() || !strings.Contains(string(v.Str), "invalid expire") {
		t.Fatalf("SETEX bad seconds = %+v", v)
	}
	if v, _ := c.Do("SETEX", "k", "0", "v"); !v.IsError() {
		t.Fatalf("SETEX 0 = %+v, want error", v)
	}
	// EXPIRE with a non-positive ttl deletes the key, as in Redis.
	if v, _ := c.Do("SET", "gone", "x"); string(v.Str) != "OK" {
		t.Fatalf("SET gone = %+v", v)
	}
	if v, _ := c.Do("EXPIRE", "gone", "0"); v.Int != 1 {
		t.Fatalf("EXPIRE gone 0 = %d, want 1", v.Int)
	}
	if v, _ := c.Do("GET", "gone"); !v.Nil {
		t.Fatalf("GET gone = %+v, want nil", v)
	}
}

// TestRESPCacheEviction fills the cache far past its LRU watermark and
// asserts SET keeps succeeding (eviction instead of -OOM) while the
// live count stays near the watermark.
func TestRESPCacheEviction(t *testing.T) {
	cache, _, addr := newRESPCacheServer(t, 1<<13, 512)
	c, err := DialRESP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 3000; i++ {
		key := "key-" + string(rune('a'+i%26)) + "-" + itoa(i)
		if v, err := c.Do("SET", key, "v"); err != nil || string(v.Str) != "OK" {
			t.Fatalf("SET %d = %+v (%v)", i, v, err)
		}
	}
	st := cache.Stats()
	if st.Evicted == 0 {
		t.Fatalf("no evictions: %+v", st)
	}
	// Per-shard watermark is 256 (512 over 2 shards); allow slack for
	// the sampling approximation.
	if st.Live > 700 {
		t.Fatalf("live = %d, want near watermark 512 (%+v)", st.Live, st)
	}
}

// TestRESPCacheCommandsRequireCache pins the typed -ERR when the TTL
// commands are issued against a raw (cache-less) server.
func TestRESPCacheCommandsRequireCache(t *testing.T) {
	_, addr := newRESPTestServer(t, 2, 1, Config{})
	c, err := DialRESP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, cmd := range [][]string{
		{"SETEX", "k", "5", "v"},
		{"EXPIRE", "k", "5"},
		{"TTL", "k"},
	} {
		if v, _ := c.Do(cmd...); !v.IsError() || !strings.Contains(string(v.Str), "requires the cache layer") {
			t.Fatalf("%s without cache = %+v, want cache-layer error", cmd[0], v)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
