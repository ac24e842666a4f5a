package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/kvmap"
)

// mapContents walks every shard and returns what the keyspace holds.
func mapContents(t *testing.T, sh *kvmap.Sharded) map[uint64]uint64 {
	t.Helper()
	out := map[uint64]uint64{}
	for i := 0; i < sh.NumShards(); i++ {
		sess, err := sh.Shard(i).Acquire()
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < sh.Shard(i).Buckets(); b++ {
			sess.WalkBucket(b, func(key, val, _ uint64) bool {
				out[key] = val
				return true
			})
		}
		sess.Release()
	}
	return out
}

// TestCodecsDifferential issues one seeded logical stream of GET, PUT,
// DEL and CAS over the binary codec to one server and over RESP to
// another. Both decode into the same IR and run the same op table, so
// every request must answer the same status (and GET the same value),
// and the two maps must end up holding the same words under the same
// keys.
func TestCodecsDifferential(t *testing.T) {
	const ops, keys, vals = 4000, 96, 8
	bs, binAddr, _ := newBatchedServer(t, 4, 2, Config{})
	rs, _, respAddr := newBatchedServer(t, 4, 2, Config{})
	bc, err := Dial(binAddr, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	rc, err := DialRESP(respAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// The logical stream speaks RESP's vocabulary; the binary side
	// addresses the same entries by the hash and the packed words the RESP
	// decoder produces.
	name := func(k int) string { return "key:" + strconv.Itoa(k) }
	text := func(v int) string { return strconv.Itoa(v) }
	word := func(v int) uint64 {
		w, _ := packValue([]byte(text(v)))
		return w
	}
	rng := rand.New(rand.NewSource(18))
	calls := make([]*Call, ops)
	kinds := make([]int, ops)
	for i := range calls {
		k, v, old := rng.Intn(keys), rng.Intn(vals), rng.Intn(vals)
		key := hashKey([]byte(name(k)))
		kinds[i] = rng.Intn(4)
		switch kinds[i] {
		case 0:
			calls[i], err = bc.Get(key)
			rc.Send("GET", name(k))
		case 1:
			calls[i], err = bc.Put(key, word(v))
			rc.Send("SET", name(k), text(v))
		case 2:
			calls[i], err = bc.Del(key)
			rc.Send("DEL", name(k))
		case 3:
			calls[i], err = bc.CAS(key, word(old), word(v))
			rc.Send("CAS", name(k), text(old), text(v))
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 { // keep both pipelines moving inside their windows
			bc.Flush()
			rc.Flush()
			for j := i - 99; j <= i; j++ {
				compareReply(t, j, kinds[j], calls[j], rc)
			}
		}
	}
	got, want := mapContents(t, rs.shards), mapContents(t, bs.shards)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("RESP-driven map holds %d keys, binary-driven %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("key %#x: RESP-driven map holds %#x (present=%v), binary-driven %#x", k, g, ok, w)
		}
	}
}

// compareReply holds request i's binary response against the RESP reply
// to the same logical request.
func compareReply(t *testing.T, i, kind int, ca *Call, rc *RESPClient) {
	t.Helper()
	if err := ca.Wait(); err != nil {
		t.Fatalf("request %d: %v", i, err)
	}
	v, err := rc.Recv()
	if err != nil || v.IsError() {
		t.Fatalf("request %d over RESP: %+v (%v)", i, v, err)
	}
	var status uint8
	switch kind {
	case 0: // GET: a bulk that packs to the same word, or nil
		status = found(!v.Nil)
		if w, _ := packValue(v.Str); !v.Nil && w != ca.Val {
			t.Fatalf("request %d: GET = %q over RESP, word %#x over binary", i, v.Str, ca.Val)
		}
	case 1: // SET answers +OK whether or not there was a previous value
		if status = ca.Status; string(v.Str) != "OK" || status > StNotFound {
			t.Fatalf("request %d: SET = %+v over RESP, status %d over binary", i, v, ca.Status)
		}
	case 2:
		status = found(v.Int == 1)
	case 3:
		status = [...]uint8{StCASMismatch, StOK}[v.Int]
		if v.Nil {
			status = StNotFound
		}
	}
	if status != ca.Status {
		t.Fatalf("request %d (kind %d): status %d over RESP (%+v), %d over binary", i, kind, status, v, ca.Status)
	}
}

// TestVariadicJoin pipelines DEL and EXISTS of 1, 2 and 64 keys between
// SETs and GETs on the same keys, through a window smaller than the
// longest command. The keys of a command run on both shards' maps and
// join into the one reply it owes: the right count, in wire order,
// one request read and one response sent per command.
func TestVariadicJoin(t *testing.T) {
	s, _, addr := newBatchedServer(t, 4, 2, Config{Window: 48})
	c, err := DialRESP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Keys alternate between the shards, so every join crosses executors.
	var names []string
	for i := 0; len(names) < 64; i++ {
		if k := "k" + strconv.Itoa(i); s.shards.ShardIndex(hashKey([]byte(k))) == len(names)%2 {
			names = append(names, k)
		}
	}
	var cmds, dataOps uint64
	var want []string
	send := func(reply string, args ...string) {
		c.Send(args...)
		want = append(want, reply)
		cmds++
		dataOps += uint64(len(args) - 1)
	}
	for _, n := range []int{1, 2, 64} {
		keys := names[:n]
		for _, k := range keys {
			send("+OK", "SET", k, "v")
			dataOps-- // SET key value is one op
		}
		send(fmt.Sprintf(":%d", n-1), append([]string{"EXISTS", "nope"}, keys[1:]...)...)
		send(fmt.Sprintf(":%d", n), append([]string{"EXISTS"}, keys...)...)
		send("$1 v", "GET", keys[n-1])
		send(fmt.Sprintf(":%d", n), append([]string{"DEL"}, keys...)...)
		send("$-1", "GET", keys[n-1])
		send(":0", append([]string{"DEL"}, keys...)...)
		send(":0", append([]string{"EXISTS"}, keys...)...)
		send("+OK", "SET", keys[0], "w")
		dataOps--
		send(":1", append([]string{"DEL"}, keys...)...)
	}
	// One write: the server stops reading at 48 unwritten replies, and the
	// few KB in flight either way fit the socket buffers.
	for i, w := range want {
		v, err := c.Recv()
		if err != nil {
			t.Fatalf("reply %d of %d: %v", i+1, len(want), err)
		}
		var got string
		switch {
		case v.Nil:
			got = "$-1"
		case v.Type == ':':
			got = ":" + strconv.FormatInt(v.Int, 10)
		case v.Type == '$':
			got = "$" + strconv.Itoa(len(v.Str)) + " " + string(v.Str)
		default:
			got = string(v.Type) + string(v.Str)
		}
		if got != w {
			t.Fatalf("reply %d = %q, want %q: a join miscounted or replies left wire order", i+1, got, w)
		}
	}
	snap := s.snapshot()
	if snap.RequestsRead != cmds || snap.ResponsesSent != cmds || snap.BatchedOps != dataOps {
		t.Fatalf("ledger: read %d sent %d for %d commands, exec_batched_ops %d for %d keys",
			snap.RequestsRead, snap.ResponsesSent, cmds, snap.BatchedOps, dataOps)
	}
	if lat := s.latencySnapshot(); lat["del"].Count != 9 {
		t.Fatalf("del latency samples = %d, want 9: one per command, however many keys", lat["del"].Count)
	}
}

// TestMaxConnsRefusal fills the connection table (MaxConns 2) and checks
// the third connection, on either listener, gets its protocol's typed
// refusal and a close — counted under busy, outside the request ledger —
// while the first two keep working and a freed slot serves the next
// client.
func TestMaxConnsRefusal(t *testing.T) {
	s, addr, respAddr := newBatchedServer(t, 4, 2, Config{MaxConns: 2})
	bc, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	rc, err := DialRESP(respAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	inUse := func() {
		t.Helper()
		if err := bc.Ping(); err != nil {
			t.Fatal(err)
		}
		if v, err := rc.Do("SET", "k", "v"); err != nil || string(v.Str) != "OK" {
			t.Fatalf("SET = %+v (%v)", v, err)
		}
	}
	inUse() // both connections are registered before the third dials

	refused := func(dialAddr, wantReply string) {
		t.Helper()
		nc, err := net.Dial("tcp", dialAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, err := io.ReadAll(nc) // the refusal, then the close
		if err != nil || string(got) != wantReply {
			t.Fatalf("third connection read %q (%v), want %q and EOF", got, err, wantReply)
		}
	}
	refused(addr, string(AppendFrame(nil, 0, StBusy)))
	refused(respAddr, "-ERR max number of clients reached\r\n")
	inUse()
	if snap := s.snapshot(); snap.Busy != 2 || snap.ConnsTotal != 2 || snap.Connections != 2 {
		t.Fatalf("busy %d connections_total %d connections %d, want 2/2/2", snap.Busy, snap.ConnsTotal, snap.Connections)
	}

	// One closes; its slot serves the next client.
	rc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.active.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("closed connection not reaped")
		}
		time.Sleep(time.Millisecond)
	}
	if rc, err = DialRESP(respAddr); err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if v, err := rc.Do("GET", "k"); err != nil || string(v.Str) != "v" {
		t.Fatalf("GET on the recycled slot = %+v (%v), want v", v, err)
	}
	inUse()
	// PING ×3, SET ×3, GET: every one read and answered, the refusals outside.
	if snap := s.snapshot(); snap.RequestsRead != 7 || snap.ResponsesSent != 7 || snap.Busy != 2 {
		t.Fatalf("ledger: read %d sent %d busy %d, want 7/7/2", snap.RequestsRead, snap.ResponsesSent, snap.Busy)
	}
}

// FuzzRESPReader feeds arbitrary bytes, arbitrarily chunked, to the RESP
// decoder. It must not panic, must size nothing from a length prefix past
// the limits, must end an over-limit or malformed stream in
// ErrRESPProtocol with the reply that precedes the cut, and must hand
// the request path only commands it can stage.
func FuzzRESPReader(f *testing.F) {
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"), uint16(7))
	f.Add([]byte("PING\r\nDEL a b c\r\nEXISTS a\r\nCAS k a b\r\nINFO latency\r\nQUIT\r\n"), uint16(3))
	f.Add([]byte("*9999\r\n"), uint16(64))
	f.Add([]byte("*1\r\n$2147483000\r\n"), uint16(1))
	f.Add([]byte("*2\r\n$3\r\nTTL\r\n$70000\r\n"), uint16(5))
	f.Add([]byte(strings.Repeat("x", 70000)), uint16(4000))
	for _, keys := range []int{64, 65, 256, 300} { // inline: no header announces the count
		f.Add([]byte("DEL"+strings.Repeat(" k", keys)+"\r\nPING\r\n"), uint16(100))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		src := &chunkReader{data: data, sizes: []int{int(chunk%4099) + 1}}
		r := newRESPReader(bufio.NewReaderSize(src, 64), &Server{})
		var overLimit bool // the first command announces more arguments than any may carry
		if rest, ok := strings.CutPrefix(string(data), "*"); ok {
			if hdr, _, ok := strings.Cut(rest, "\r\n"); ok {
				n, err := strconv.Atoi(hdr)
				overLimit = err == nil && n > respMaxArgs
			}
		}
		for calls := 0; ; calls++ {
			cmd, reply, err := r.next()
			if calls > len(data) {
				t.Fatalf("%d commands out of %d bytes", calls, len(data))
			}
			if cap(r.flat) > 2*respMaxArgs*(respMaxBulk+2) || cap(r.line) > 4*respMaxBulk {
				t.Fatalf("buffers grew to %d/%d bytes on %d bytes of input", cap(r.flat), cap(r.line), len(data))
			}
			if overLimit && calls == 0 && !errors.Is(err, ErrRESPProtocol) {
				t.Fatalf("over-limit array header: %v, want ErrRESPProtocol", err)
			}
			if err != nil {
				switch {
				case errors.Is(err, ErrRESPProtocol):
					if !cmd.bad || !strings.HasPrefix(string(reply), "-ERR protocol error") {
						t.Fatalf("protocol error %q with reply %q", err, reply)
					}
				case err == io.EOF, err == io.ErrUnexpectedEOF:
				default:
					t.Fatalf("unexpected error %v", err)
				}
				return
			}
			if reply != nil {
				continue
			}
			staged := cmd.op >= OpGet && cmd.op <= OpCAS || cmd.op == opExists || cmd.op == opRemove
			if !staged && cmd.op != OpStats || cmd.keys < 0 || cmd.keys >= respMaxArgs ||
				cmd.op == OpStats && cmd.key >= uint64(len(infoSections)) {
				t.Fatalf("undecodable command reached the request path: %+v", cmd)
			}
		}
	})
}
