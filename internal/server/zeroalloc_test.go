package server

import (
	"bytes"
	"io"
	"net"
	"strconv"
	"testing"
)

// The served request path must not allocate in steady state: the frame
// reader decodes in place from a fixed buffer, requests are staged in
// the connection's outbox slots and cross to the executor as one
// fixed-size ring node per burst, responses are encoded over
// the requests and copied from there into the writer's buffer. AllocsPerRun counts the whole process's mallocs, so one
// pipelined loopback burst per run covers reader, ring, executors,
// outbox and writer at once; its result is integral (total/runs), so 0
// tolerates a stray runtime allocation but not one per burst, let alone
// one per request.

const allocBurst = 64 // requests per burst (a multiple of 4)

func TestServedBinaryPathDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, addr, _ := newBatchedServer(t, 4, 2, Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// PUT, GET, CAS, DEL on each key: every request succeeds on every run
	// and leaves the map as it found it.
	var burst []byte
	for i := uint64(0); i < allocBurst/4; i++ {
		k := keyOnShard(s.shards, int(i%2), 1000*i)
		burst = AppendFrame(burst, 4*i+1, OpPut, k, i)
		burst = AppendFrame(burst, 4*i+2, OpGet, k)
		burst = AppendFrame(burst, 4*i+3, OpCAS, k, i, i+1)
		burst = AppendFrame(burst, 4*i+4, OpDel, k)
	}
	fr := newFrameReader(nc, maxResponseFrame)
	round := func() {
		if _, err := nc.Write(burst); err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= allocBurst; i++ {
			f, err := fr.read()
			if err != nil {
				t.Fatal(err)
			}
			// A PUT of an absent key answers NOT_FOUND (no previous value).
			if want := byte(StOK); f.ID != i || (f.Code != want && !(i%4 == 1 && f.Code == StNotFound)) {
				t.Fatalf("response %d: id %d status %d", i, f.ID, f.Code)
			}
		}
	}
	for i := 0; i < 20; i++ { // warm pools, rings and goroutine stacks
		round()
	}
	before := s.snapshot()
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("binary served path: %.0f allocs per %d-request burst, want 0", avg, allocBurst)
	}
	snap := s.snapshot()
	if snap.BatchedOps < 200*allocBurst || snap.ShardOps[0] == 0 || snap.ShardOps[1] == 0 {
		t.Fatalf("burst did not cross both shards: batched_ops %d shard_ops %v", snap.BatchedOps, snap.ShardOps)
	}
	// The OA queue is paid per burst, not per request or per shard: a
	// burst that one read delivers is one node on the connection's ring.
	bursts := (snap.BatchedOps - before.BatchedOps) / allocBurst
	if nodes := snap.RingNodes - before.RingNodes; nodes != bursts {
		t.Fatalf("%d ring nodes for %d two-shard bursts of %d requests, want exactly 1 per burst", nodes, bursts, allocBurst)
	}
}

func TestServedRESPPathDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, addr := newRESPTestServer(t, 4, 2, Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	var burst, want []byte
	cmd := func(args ...string) {
		burst = append(burst, '*')
		burst = strconv.AppendInt(burst, int64(len(args)), 10)
		burst = append(burst, '\r', '\n')
		for _, a := range args {
			burst = AppendRESPBulk(burst, []byte(a))
		}
	}
	for i := 0; i < allocBurst/4; i++ {
		k, v := "key:"+strconv.Itoa(i), strconv.Itoa(i)
		cmd("SET", k, v)
		want = AppendRESPSimple(want, "OK")
		cmd("GET", k)
		want = AppendRESPBulk(want, []byte(v))
		cmd("DEL", k)
		want = AppendRESPInt(want, 1)
		cmd("GET", k)
		want = AppendRESPNil(want)
	}
	got := make([]byte, len(want))
	round := func() {
		if _, err := nc.Write(burst); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(nc, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("replies = %q, want %q", got, want)
		}
	}
	for i := 0; i < 20; i++ {
		round()
	}
	before := s.snapshot()
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("RESP served path: %.0f allocs per %d-request burst, want 0", avg, allocBurst)
	}
	// The same batching gate as the binary path: the keys hash over both
	// shards, and a burst one read delivers is one node.
	snap := s.snapshot()
	if snap.ShardOps[0] == 0 || snap.ShardOps[1] == 0 {
		t.Fatalf("burst did not cross both shards: shard_ops %v", snap.ShardOps)
	}
	bursts := (snap.BatchedOps - before.BatchedOps) / allocBurst
	if nodes := snap.RingNodes - before.RingNodes; bursts < 200 || nodes != bursts {
		t.Fatalf("%d ring nodes for %d two-shard bursts of %d commands, want exactly 1 per burst", nodes, bursts, allocBurst)
	}
}
