// Command oaserver serves the OA key-value map over the pipelined binary
// protocol (internal/server), with an optional RESP2-compatible listener
// (-resp) for stock Redis tooling. The keyspace is partitioned across
// -shards independent map instances (0 = one per core): each shard is
// its own OA universe — arena, session registry, reclamation phases — so
// reclamation in one shard never fences operations in another.
//
// Both listeners feed one request path: a connection's reader decodes
// its wire format into the same commands and hands each pipeline burst,
// as one node, to the bounded MPMC ring of the executor that serves the
// connection for its lifetime. There are min(shards, -threads − 1)
// long-lived executor goroutines (at least one), each holding one session
// in every shard and running every key on its own shard's map, so the
// leased session population is executors × shards regardless of
// connection count or protocol, and every shard keeps a session free for
// the cache sweeper whenever -threads ≥ 2. A full ring answers BUSY after
// -ring-wait; a connection past -max-conns is refused.
//
// -cache layers TTL/LRU cache semantics over the shards on the RESP
// surface: SET applies -ttl as the default time-to-live, GET expires
// lazily, a background sweeper runs every -sweep-interval, SETEX /
// EXPIRE / TTL come alive, and under -max-entries or node-budget
// pressure the cache evicts approximately-LRU entries instead of
// answering -OOM.
//
// SIGTERM/SIGINT starts a graceful drain: stop accepting, GOAWAY every
// binary-protocol connection, serve until clients finish their pipelines
// and close (or -drain-timeout cuts the stragglers), then dump final
// stats as one JSON line on stdout and exit 0.
//
// A flight recorder samples every registered metric each
// -flight-interval into in-memory ring buffers and evaluates the health
// rules (backlog growth, ring saturation, phase stall, SLO burn) every
// tick; its state is always available via the STATS op and RESP
// `INFO health`, and -flight-interval 0 turns it off.
//
// -debug exposes the observability endpoint (/metrics, /stats.json,
// /trace, /debug/slowlog, /debug/history, /healthz, pprof) with shard
// 0's SMR instrumentation, the oa_server_* counters and the
// per-(command, executor) latency histograms registered. (Only shard 0's manager is exported:
// the SMR metric names are fixed, so per-shard managers would collide;
// oa_server_shard_ops{shard="i"} carries the per-shard traffic split.)
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/kvmap"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/ttlcache"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7070", "listen address (binary protocol)")
		respAddr     = flag.String("resp", "", "RESP2 listen address (empty = off)")
		debug        = flag.String("debug", "", "observability HTTP address (empty = off)")
		threads      = flag.Int("threads", 32, "per-shard session registry size (each of the min(shards, threads-1) executors, at least one, takes one lease in every shard; the slot left over is the cache sweeper's)")
		shards       = flag.Int("shards", 0, "keyspace shards, rounded up to a power of two (0 = one per core)")
		capacity     = flag.Int("capacity", 1<<20, "total node budget across shards (live entries + reclamation slack)")
		expected     = flag.Int("expected", 0, "expected live entries across shards (0 = capacity/2)")
		window       = flag.Int("window", 256, "per-connection in-flight response window")
		ringSize     = flag.Int("ring-size", 1024, "per-executor request ring bound, in queued requests")
		ringWait     = flag.Duration("ring-wait", 2*time.Millisecond, "max wait for ring space before BUSY")
		maxConns     = flag.Int("max-conns", 1024, "max concurrent connections over both listeners (one more is answered a BUSY frame / -ERR max number of clients reached, and closed)")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "max graceful drain on SIGTERM")
		traceOn      = flag.Bool("trace", false, "record protocol trace events (request spans, ring hand-offs, reclamation)")
		slowThresh   = flag.Duration("slow-threshold", time.Millisecond, "server-side latency past which a request enters /debug/slowlog")
		slowlogSize  = flag.Int("slowlog", 256, "slow-request ring capacity (rounded up to a power of two)")
		spanSample   = flag.Int("span-sample", 64, "emit every Nth request span into the trace rings (with -trace)")
		flightIntvl  = flag.Duration("flight-interval", flight.DefaultInterval, "flight-recorder sampling period (0 = recorder off)")
		flightWindow = flag.Duration("flight-window", flight.DefaultWindow, "flight-recorder history retention")
		sloP99       = flag.Duration("slo-p99", 20*time.Millisecond, "per-command p99 objective for the health engine's burn-rate rule (0 = rule off)")
		sloOps       = flag.Float64("slo-ops", 0, "requests/s floor for the health engine (0 = rule off)")
		cacheOn      = flag.Bool("cache", false, "serve RESP commands through the TTL/LRU cache layer (enables SETEX/EXPIRE/TTL)")
		cacheTTL     = flag.Duration("ttl", 0, "cache default time-to-live applied by SET (0 = none; with -cache)")
		maxEntries   = flag.Int("max-entries", 0, "cache LRU watermark: evict past this many live entries across shards (0 = evict only under capacity pressure; with -cache)")
		sweepIntvl   = flag.Duration("sweep-interval", time.Second, "cache background expiry sweep period (0 = lazy expiry only; with -cache)")
	)
	flag.Parse()

	if *expected <= 0 {
		*expected = *capacity / 2
	}
	if *traceOn {
		trace.SetEnabled(true)
	}
	obs.SetEnabled(true)

	sh := kvmap.NewSharded(core.Config{MaxThreads: *threads, Capacity: *capacity}, *expected, *shards)
	var cache *ttlcache.Sharded
	if *cacheOn {
		cache = ttlcache.OverSharded(sh, ttlcache.Options{
			DefaultTTL:    *cacheTTL,
			MaxLive:       *maxEntries,
			SweepInterval: *sweepIntvl,
		})
		defer cache.Close()
	}
	srv := server.New(server.Config{
		Shards:        sh,
		Cache:         cache,
		Window:        *window,
		RingSize:      *ringSize,
		RingWait:      *ringWait,
		MaxConns:      *maxConns,
		DrainTimeout:  *drainTimeout,
		SlowThreshold: *slowThresh,
		SlowLogSize:   *slowlogSize,
		SpanSample:    *spanSample,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "oaserver: "+format+"\n", args...)
		},
	})

	// The registry now exists whether or not -debug serves it: the flight
	// recorder samples it continuously and feeds the health engine, whose
	// state rides on STATS and `INFO health` even with no HTTP listener.
	reg := obs.NewRegistry()
	sh.Shard(0).Manager().RegisterObs(reg)
	srv.RegisterObs(reg)
	var rec *flight.Recorder
	if *flightIntvl > 0 {
		rec = flight.New(reg, flight.Config{
			Interval: *flightIntvl,
			Window:   *flightWindow,
			SLOP99:   *sloP99,
			SLOOps:   *sloOps,
		})
		rec.RegisterObs(reg)
		srv.SetHealth(func() any { return rec.Health() })
		rec.Start()
		defer rec.Stop()
	}
	if *debug != "" {
		dln, err := net.Listen("tcp", *debug)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oaserver:", err)
			os.Exit(1)
		}
		go http.Serve(dln, reg.Handler())
		fmt.Fprintf(os.Stderr, "oaserver: observability on http://%s/metrics\n", dln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oaserver:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "oaserver: serving on %s (%d shards, %d session slots/shard, capacity %d)\n",
		ln.Addr(), sh.NumShards(), *threads, *capacity)

	done := make(chan error, 2)
	listeners := 1
	go func() { done <- srv.Serve(ln) }()
	if *respAddr != "" {
		rln, err := net.Listen("tcp", *respAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oaserver:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "oaserver: RESP on %s\n", rln.Addr())
		listeners++
		go func() { done <- srv.ServeRESP(rln) }()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "oaserver: %v: draining\n", sig)
		forced := srv.Shutdown()
		for i := 0; i < listeners; i++ {
			<-done
		}
		// The shard registries close only after the drain: the executors
		// hold their sessions until the last connection is gone. The cache
		// sweeper stops first, so a sweep in flight hands its lease back
		// before the final stats count leases.
		if cache != nil {
			cache.Close()
		}
		sh.Close()
		os.Stdout.Write(srv.FinalStats())
		if forced > 0 {
			fmt.Fprintf(os.Stderr, "oaserver: force-closed %d connections at drain timeout\n", forced)
		}
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, "oaserver:", err)
			os.Exit(1)
		}
	}
}
