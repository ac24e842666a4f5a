package e2e

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/server"
)

// loadReport is the part of oaload's -json document the slo row reads.
type loadReport struct {
	Ops     uint64            `json:"ops"`
	Busy    uint64            `json:"busy"`
	Dropped uint64            `json:"dropped"`
	Errs    uint64            `json:"errs"`
	Latency server.CmdLatency `json:"latency"`
	Exec    *struct {
		RingCap       int     `json:"ring_cap"`
		MaxQueueDepth int     `json:"max_queue_depth"`
		Batches       uint64  `json:"batches"`
		BatchedOps    uint64  `json:"batched_ops"`
		AvgBatch      float64 `json:"avg_batch"`
	} `json:"exec"`
	Health *struct {
		Final  string `json:"final"`
		Firing []struct {
			Name string `json:"name"`
		} `json:"firing"`
	} `json:"health"`
}

// respOK fails unless the next n pipelined replies are all +OK.
func respOK(c *server.RESPClient, n int) error {
	if err := c.Flush(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if v, err := c.Recv(); err != nil || string(v.Str) != "OK" {
			return fmt.Errorf("pipelined reply %d of %d = %q (%v), want OK", i, n, v.Str, err)
		}
	}
	return nil
}

func dialRESP(t *testing.T, addr string) *server.RESPClient {
	t.Helper()
	c, err := server.DialRESP(addr)
	if err != nil {
		t.Fatalf("dial RESP: %v", err)
	}
	return c
}

// allShardsActive checks the flag reached the router and the router
// spread the keys: n shards, each with traffic, one executor per shard
// (every row's registry has room), and — since connections never lease —
// exactly executors × shards session grants, one per executor in every
// shard.
func allShardsActive(n int) func(*testing.T, stats) {
	return func(t *testing.T, st stats) {
		f := st.Server
		if f.Shards != n || len(f.ShardOps) != n {
			t.Fatalf("server ran %d shards (ops %v), want %d", f.Shards, f.ShardOps, n)
		}
		for i, ops := range f.ShardOps {
			if ops == 0 {
				t.Errorf("shard %d saw no traffic (shard_ops %v)", i, f.ShardOps)
			}
		}
		if f.Executors != n || len(f.RingDepth) != n {
			t.Errorf("executors=%d (ring_depth %v) over %d shards, want %d", f.Executors, f.RingDepth, n, n)
		}
		if want := uint64(f.Executors * n); f.SessionGrants != want {
			t.Errorf("session_grants=%d for %d executors over %d shards, want %d: something besides the executors leased",
				f.SessionGrants, f.Executors, n, want)
		}
	}
}

// TestLifecycle runs one real oaserver per row from start to SIGTERM:
// drive sends the row's traffic and may return a settle step that runs
// once the drain has begun (a load the drain itself must end); drain
// asserts the shared exit contract; check asserts what the row's flags
// should have changed in the final-stats line.
func TestLifecycle(t *testing.T) {
	skipShort(t)
	const listen = "127.0.0.1:0"
	var report loadReport // oaload -json document of the slo row
	var textOps [4]uint64 // ... and the same run's summary line
	zipfThroughDrain := func(t *testing.T, s *oaserver) func() {
		return s.loadThroughDrain(t, "-conns", "16", "-burst", "0", "-dist", "zipf", "-theta", "0.99", "-keys", "65536")
	}
	rows := []struct {
		name  string
		flags []string
		drive func(t *testing.T, s *oaserver) (settle func())
		check func(t *testing.T, st stats)
	}{
		{
			// 64 connections churning through reconnects on 32 session
			// slots, then 64 more cut off mid-pipeline by the drain.
			name:  "serve",
			flags: []string{"-shards", "1", "-threads", "32", "-capacity", "1048576"},
			drive: func(t *testing.T, s *oaserver) func() {
				finish(t, start(t, "oaload", "-addr", s.addr, "-conns", "64", "-duration", "1s", "-burst", "2000"))
				return s.loadThroughDrain(t, "-conns", "64", "-burst", "0")
			},
			check: func(t *testing.T, st stats) {
				allShardsActive(1)(t, st)
				f := st.Server
				if f.SessionsCap != 32 || f.GoAways == 0 || f.BatchedOps == 0 {
					t.Errorf("sessions_cap=%d goaways=%d exec_batched_ops=%d, want 32, >0, >0", f.SessionsCap, f.GoAways, f.BatchedOps)
				}
			},
		},
		{name: "shards-1", flags: []string{"-shards", "1"}, drive: zipfThroughDrain, check: allShardsActive(1)},
		{name: "shards-2", flags: []string{"-shards", "2"}, drive: zipfThroughDrain, check: allShardsActive(2)},
		{name: "shards-4", flags: []string{"-shards", "4"}, drive: zipfThroughDrain, check: allShardsActive(4)},
		{
			name:  "resp",
			flags: []string{"-resp", listen, "-shards", "2", "-threads", "8", "-capacity", "262144"},
			drive: func(t *testing.T, s *oaserver) func() {
				finish(t, start(t, "oaload", "-addr", s.resp, "-resp", "-conns", "4", "-duration", "300ms"))
				c := dialRESP(t, s.resp)
				defer c.Close()
				if v, err := c.Do("SET", "k", "v"); err != nil || string(v.Str) != "OK" {
					t.Fatalf("SET = %q (%v)", v.Str, err)
				}
				if v, err := c.Do("GET", "k"); err != nil || string(v.Str) != "v" {
					t.Fatalf("GET = %q (%v)", v.Str, err)
				}
				if v, err := c.Do("DEL", "k"); err != nil || v.Int != 1 {
					t.Fatalf("DEL = %d (%v)", v.Int, err)
				}
				return nil
			},
			check: allShardsActive(2),
		},
		{
			// -cache -ttl -max-entries -sweep-interval reach the server:
			// writes far past the watermark and the node budget all answer
			// +OK, and the final stats say why.
			name: "cache",
			flags: []string{"-resp", listen, "-shards", "2", "-threads", "8", "-capacity", "4096",
				"-cache", "-ttl", "30s", "-max-entries", "1024", "-sweep-interval", "10ms"},
			drive: func(t *testing.T, s *oaserver) func() {
				c := dialRESP(t, s.resp)
				defer c.Close()
				c.Send("SET", "warm", "v")
				if err := respOK(c, 1); err != nil {
					t.Fatal(err)
				}
				if v, err := c.Do("TTL", "warm"); err != nil || v.Int <= 0 || v.Int > 30 {
					t.Fatalf("TTL of a plain SET = %d (%v), want the -ttl default in (0, 30]", v.Int, err)
				}
				for base := 0; base < 5000; base += 500 {
					for i := base; i < base+500; i++ {
						c.Send("SET", "fill:"+strconv.Itoa(i), "v")
					}
					if err := respOK(c, 500); err != nil {
						t.Fatalf("SETs from %d: %v (eviction must absorb capacity pressure)", base, err)
					}
				}
				eventually(t, "a background sweep", func() bool { return s.stats(t).cache(t).Sweeps > 0 })
				return nil
			},
			check: func(t *testing.T, st stats) {
				if cs := st.cache(t); cs.Sweeps == 0 || cs.Evicted == 0 || cs.Live > 1024+512 || st.Server.Capacity != 0 {
					t.Errorf("cache %+v with %d CAPACITY answers, want sweeps>0 evicted>0 live near 1024 and 0", cs, st.Server.Capacity)
				}
			},
		},
		{
			// SIGTERM during sweep: a pipelined SET/SETEX churn over fresh
			// keys that expire in 50 ms under a 1 ms sweeper, signalled
			// while both are running. RESP has no GOAWAY, so the client
			// stops once the drain has begun; every reply must still arrive.
			name:  "sweep",
			flags: []string{"-resp", listen, "-shards", "2", "-threads", "8", "-cache", "-ttl", "50ms", "-sweep-interval", "1ms"},
			drive: func(t *testing.T, s *oaserver) func() {
				c := dialRESP(t, s.resp)
				stop, done := make(chan struct{}), make(chan error, 1)
				go func() {
					defer c.Close()
					for n := 0; ; n += 64 {
						select {
						case <-stop:
							done <- nil
							return
						default:
						}
						for i := n; i < n+64; i += 2 {
							c.Send("SET", "c:"+strconv.Itoa(i), "v")
							c.Send("SETEX", "c:"+strconv.Itoa(i+1), "1", "v")
						}
						if err := respOK(c, 64); err != nil {
							done <- err
							return
						}
					}
				}()
				first := s.stats(t).cache(t)
				eventually(t, "sweeps to advance under the churn", func() bool {
					cs := s.stats(t).cache(t)
					return cs.Sweeps > first.Sweeps+20 && cs.Expired > first.Expired
				})
				return func() {
					close(stop)
					if err := <-done; err != nil {
						t.Errorf("churn across the drain: %v", err)
					}
				}
			},
			check: func(t *testing.T, st stats) {
				if cs := st.cache(t); cs.Sweeps == 0 || cs.Expired == 0 {
					t.Errorf("cache block %+v, want sweeps and expiries", cs)
				}
			},
		},
		{
			// oaload's two reports against the server's own histograms.
			name:  "slo",
			flags: []string{"-threads", "32", "-capacity", "1048576", "-slow-threshold", "5ms"},
			drive: func(t *testing.T, s *oaserver) func() {
				path := filepath.Join(t.TempDir(), "load.json")
				textOps = finish(t, start(t, "oaload", "-addr", s.addr, "-conns", "16", "-duration", "1s", "-burst", "0", "-json", path))
				raw, err := os.ReadFile(path)
				if err == nil {
					err = json.Unmarshal(raw, &report)
				}
				if err != nil {
					t.Fatalf("oaload -json report: %v", err)
				}
				return nil
			},
			check: func(t *testing.T, st stats) {
				r := report
				if [4]uint64{r.Ops, r.Busy, r.Dropped, r.Errs} != textOps {
					t.Errorf("-json report %+v disagrees with the summary line %v", r, textOps)
				}
				if r.Latency.Count == 0 || r.Latency.P99Ns == 0 {
					t.Errorf("client latency histogram empty: %+v", r.Latency)
				}
				var served uint64
				for _, op := range []string{"get", "put", "del", "cas"} {
					cl, ok := st.Latency[op]
					if !ok || cl.Count == 0 || cl.P50Ns == 0 || cl.P99Ns == 0 {
						t.Errorf("server %s latency %+v (present=%v), want samples with nonzero quantiles", op, cl, ok)
					}
					served += cl.Count
				}
				if served < r.Ops {
					t.Errorf("server histograms hold %d ops, the client completed %d", served, r.Ops)
				}
				ex := r.Exec
				if ex == nil || ex.RingCap == 0 || ex.MaxQueueDepth > ex.RingCap ||
					ex.Batches == 0 || ex.BatchedOps < r.Ops || ex.AvgBatch < 1 {
					t.Errorf("exec block %+v does not describe a sized ring that carried %d ops", ex, r.Ops)
				}
				// slo_p99_burn alone is the latency SLO itself, which no
				// test gates: it is unverified on available hardware.
				h := r.Health
				if h == nil || (h.Final != "ok" && !(len(h.Firing) == 1 && h.Firing[0].Name == "slo_p99_burn")) {
					t.Errorf("health block %+v, want a final state of ok", h)
				}
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s := serve(t, row.flags...)
			row.check(t, s.drain(t, row.drive(t, s)))
		})
	}
}
