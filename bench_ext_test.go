// Extension benchmarks beyond the paper's figures: the Michael-Scott
// queue, the key→value map and the ordered range scan, each under the
// schemes that support them. See EXPERIMENTS.md
// "Extensions".
package repro

import (
	"encoding/json"
	"io"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/kvmap"
	"repro/internal/list"
	"repro/internal/mpmc"
	"repro/internal/queue"
	"repro/internal/server"
	"repro/internal/sizing"
	"repro/internal/skiplist"
	"repro/internal/smr"
)

const extCapacity = 1 << 16

// BenchmarkExtQueue measures enqueue+dequeue pairs through the MS queue.
func BenchmarkExtQueue(b *testing.B) {
	for _, sc := range []smr.Scheme{smr.NoRecl, smr.OA, smr.HP, smr.EBR} {
		b.Run(sc.String(), func(b *testing.B) {
			q, err := queue.New(sc, sizing.Config{MaxThreads: 1, Capacity: extCapacity})
			if err != nil {
				b.Fatal(err)
			}
			s := q.QueueSession(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Enqueue(uint64(i))
				s.Dequeue()
			}
		})
	}
}

// BenchmarkExtMap measures the map's four operations in a mixed loop.
func BenchmarkExtMap(b *testing.B) {
	m := kvmap.New(core.Config{MaxThreads: 1, Capacity: extCapacity}, 4096)
	s := m.Session(0)
	for k := uint64(1); k <= 4096; k++ {
		s.PutIfAbsent(k, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i%4096) + 1
		switch i & 3 {
		case 0:
			s.Get(k)
		case 1:
			s.Put(k, uint64(i))
		case 2:
			s.Get(k + 4096)
		default:
			s.PutIfAbsent(k, uint64(i))
		}
	}
}

// BenchmarkExtRangeScan measures the ordered scan over a 10k-key index.
func BenchmarkExtRangeScan(b *testing.B) {
	sl := skiplist.NewOA(core.Config{MaxThreads: 1, Capacity: extCapacity})
	s := sl.ScanSession(0)
	for k := uint64(1); k <= 10000; k++ {
		s.Insert(k)
	}
	b.ResetTimer()
	visited := 0
	for i := 0; i < b.N; i++ {
		s.RangeScan(1, 10000, func(uint64) bool { visited++; return true })
	}
	b.StopTimer()
	if visited != b.N*10000 {
		b.Fatalf("visited %d keys, want %d", visited, b.N*10000)
	}
	b.ReportMetric(float64(visited)/float64(b.N), "keys/scan")
}

// BenchmarkExtMPMC measures the bounded request ring the batched server
// runs on: multi-word payload enqueue+dequeue pairs through one queue of
// an OA-managed group, single-threaded (the per-op floor) and with the
// parallel driver contending producers and consumers on one ring.
func BenchmarkExtMPMC(b *testing.B) {
	b.Run("pair", func(b *testing.B) {
		g := mpmc.NewGroup(core.Config{MaxThreads: 1, Capacity: extCapacity}, 1, 1024)
		q, s := g.Queue(0), g.Session(0)
		var p mpmc.Payload
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p[0] = uint64(i)
			s.TryEnqueue(q, &p)
			s.Dequeue(q, &p)
		}
	})
	b.Run("contended", func(b *testing.B) {
		g := mpmc.NewGroup(core.Config{MaxThreads: 64, Capacity: extCapacity}, 1, 1024)
		q := g.Queue(0)
		b.RunParallel(func(pb *testing.PB) {
			s, err := g.Acquire()
			if err != nil {
				b.Error(err)
				return
			}
			defer s.Release()
			var p mpmc.Payload
			for pb.Next() {
				if s.TryEnqueue(q, &p) {
					s.Dequeue(q, &p)
				}
			}
		})
	})
}

// BenchmarkAllocatorSanity reproduces the paper's §5 sanity check that the
// object-pool allocator performs at least as well as the system allocator:
// node churn through the shared pool vs native Go allocation of equivalent
// nodes (which also drags the garbage collector into the loop).
func BenchmarkAllocatorSanity(b *testing.B) {
	b.Run("pool", func(b *testing.B) {
		p := alloc.New(4096, 126, list.ResetNode)
		var l alloc.Local
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := p.Alloc(&l)
			p.Arena().At(s).Key.Store(uint64(i))
			p.Free(&l, s)
		}
	})
	b.Run("native", func(b *testing.B) {
		var sink *list.Node
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := &list.Node{}
			n.Key.Store(uint64(i))
			sink = n
		}
		_ = sink
	})
}

// countingListener counts the Read and Write calls the server issues on
// the connections it accepts — one read(2) or write(2) each on a TCP
// socket.
type countingListener struct {
	net.Listener
	reads, writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: nc, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.l.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

// BenchmarkServeBurst measures the served request path end to end over
// loopback, one op = one request: a client pipelines 64-request bursts
// (PUT, GET, CAS, DEL across both shards) through reader → ring →
// executor → outbox → writer. Beside ns/req and allocs/req it reports
// the server's socket reads per request (reads/req: one per burst, i.e.
// 1/64, where the unbuffered reader paid 2), its socket writes per
// request (writes/req: at best one per burst, 1/64), and nodes/req, the
// OA-queue nodes enqueued per request (one per burst, i.e. 1/64, where
// one node per burst and shard paid 2/64 and the per-request ring 1).
func BenchmarkServeBurst(b *testing.B) {
	const burstReqs = 64
	sh := kvmap.NewSharded(core.Config{MaxThreads: 4, Capacity: 1 << 16}, 1<<14, 2)
	srv := server.New(server.Config{Shards: sh})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	counted := &countingListener{Listener: ln}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(counted) }()
	defer func() {
		srv.Shutdown()
		if err := <-served; err != nil {
			b.Error(err)
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer nc.Close()

	var burst []byte
	replyBytes := 0
	for i := uint64(0); i < burstReqs/4; i++ {
		k := i << 20
		for sh.ShardIndex(k) != int(i%2) {
			k++
		}
		burst = server.AppendFrame(burst, 4*i+1, server.OpPut, k, i)
		burst = server.AppendFrame(burst, 4*i+2, server.OpGet, k)
		burst = server.AppendFrame(burst, 4*i+3, server.OpCAS, k, i, i+1)
		burst = server.AppendFrame(burst, 4*i+4, server.OpDel, k)
		replyBytes += 21 + 21 + 13 + 21 // NOT_FOUND 0 | OK val | OK | OK val
	}
	replies := make([]byte, replyBytes)
	round := func() {
		if _, err := nc.Write(burst); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(nc, replies); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		round()
	}
	reads0, writes0, nodes0 := counted.reads.Load(), counted.writes.Load(), ringNodes(b, srv)
	b.ReportAllocs()
	b.ResetTimer()
	reqs := 0
	for ; reqs < b.N; reqs += burstReqs {
		round()
	}
	b.StopTimer()
	if last := replies[replyBytes-21:]; last[12] != server.StOK {
		b.Fatalf("last reply of the burst has status %d", last[12])
	}
	b.ReportMetric(float64(counted.reads.Load()-reads0)/float64(reqs), "reads/req")
	b.ReportMetric(float64(counted.writes.Load()-writes0)/float64(reqs), "writes/req")
	b.ReportMetric(float64(ringNodes(b, srv)-nodes0)/float64(reqs), "nodes/req")
}

// ringNodes reads the server's ring-node counter off its STATS document.
func ringNodes(b *testing.B, srv *server.Server) uint64 {
	var doc struct {
		Server struct {
			RingNodes uint64 `json:"ring_nodes"`
		} `json:"server"`
	}
	if err := json.Unmarshal(srv.FinalStats(), &doc); err != nil {
		b.Fatal(err)
	}
	return doc.Server.RingNodes
}
